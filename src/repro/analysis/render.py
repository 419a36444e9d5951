"""Text reports of the bounded checks, shared by every entry point.

``python -m repro.cli check``, the service daemon and the algebra
planner print the same report for the same question; these builders
are the one place its lines are produced.  A report depends only on
the title it is given and on sweep verdicts, never on how a verdict
was computed.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.datamodel.instances import Instance


def facts(instance: Instance) -> str:
    return "{" + ", ".join(str(fact) for fact in instance.sorted_facts()) + "}"


def header(name: str, what: str, domain: Sequence[str], max_facts: int) -> str:
    rendered = ",".join(domain)
    return (
        f"== check {name}: {what} over domain {{{rendered}}}, "
        f"max_facts={max_facts} =="
    )


def coverage_line(coverage: str, instances: int, orbits: int) -> str:
    return (
        f"coverage: {coverage} "
        f"(instances_checked={instances}, orbits_checked={orbits})"
    )


def violation_lines(pairs: Sequence, joiner: str, limit: int = 5) -> List[str]:
    lines = [
        f"  violation: {facts(left)} {joiner} {facts(right)}"
        for left, right in pairs[:limit]
    ]
    if len(pairs) > limit:
        lines.append(f"  ... and {len(pairs) - limit} more")
    return lines


def unique_lines(
    name: str, domain: Sequence[str], max_facts: int, universe: int, verdict: Any
) -> List[str]:
    """The unique-solutions report of a :class:`SweepVerdict`."""
    ok, violations = verdict
    return [
        header(name, "unique solutions", domain, max_facts),
        f"universe: {universe} instances",
        f"holds: {'yes' if ok else 'VIOLATED'}",
        *violation_lines(violations, "~"),
        coverage_line(
            verdict.coverage, verdict.instances_checked, verdict.orbits_checked
        ),
    ]


def subset_lines(
    name: str, domain: Sequence[str], max_facts: int, universe: int, report: Any
) -> List[str]:
    """The (∼M,∼M)-subset report of a :class:`SubsetPropertyReport`."""
    return [
        header(name, "subset property (~M,~M)", domain, max_facts),
        f"universe: {universe} instances",
        f"holds: {'yes' if report.holds else 'VIOLATED'} "
        f"(pairs checked: {report.checked})",
        *violation_lines(report.violations, "|"),
        coverage_line(
            report.coverage, report.instances_checked, report.orbits_checked
        ),
    ]


def invertibility_lines(
    name: str,
    domain: Sequence[str],
    max_facts: int,
    universe: int,
    classification: Any,
    report: Any,
) -> List[str]:
    """The report of an :class:`InvertibilityReport`, with the
    mapping's :class:`MappingClassification`."""
    subset = report.quasi_subset_property
    lines = [
        header(name, "invertibility", domain, max_facts),
        f"class: {classification.describe()} "
        f"({classification.n_dependencies} dependencies)",
        f"universe: {universe} instances",
        f"constant propagation: {'yes' if report.constant_propagation else 'no'}",
        f"unique solutions: {'yes' if report.unique_solutions else 'VIOLATED'}",
    ]
    if report.unique_solutions_witness is not None:
        left, right = report.unique_solutions_witness
        lines.append(f"  witness: {facts(left)} ~ {facts(right)}")
    lines.append(
        f"subset property (~M,~M): {'holds' if subset.holds else 'VIOLATED'} "
        f"(pairs checked: {subset.checked})"
    )
    lines.extend(violation_lines(subset.violations, "|"))
    lines.append(f"verdict: {report.verdict()}")
    lines.append(
        coverage_line(
            report.coverage, report.instances_checked, report.orbits_checked
        )
    )
    return lines

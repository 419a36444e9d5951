"""The unifying framework of Section 3: (∼1,∼2)-inverses.

The key idea is to relax the identity Inst(Id) = Inst(M ∘ M') modulo
equivalence relations contained in ∼M (equal solution spaces):

* :class:`Equality` is ``=`` — plugging it in on both sides gives the
  notion of an *inverse* (Corollary 3.6);
* :class:`SolutionEquivalence` is ∼M itself — giving *quasi-inverses*
  (Definition 3.8), the most relaxed notion in the spectrum
  (Proposition 3.7).

Theorem 3.5 makes the (∼1,∼2)-subset property (Definition 3.4) the
exact existence criterion.  The subset property and the
(∼1,∼2)-inverse definition quantify over *all* ground instances; the
checkers here quantify over explicitly supplied finite universes and
are therefore *falsifiers*: a reported violation (with witnesses) is
a real violation, while a pass is evidence bounded by the universe.
All of the paper's counterexamples have witnesses small enough for
these checkers to find (see experiments E2, E4, E8).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.datamodel.instances import Instance
from repro.core.mapping import (
    SchemaMapping,
    data_exchange_equivalent,
    solutions_contained,
)
from repro.core.composition import MembershipSearch, composition_membership
from repro.engine.budget import (
    Budget,
    COVERAGE_EXHAUSTIVE,
    SweepVerdict,
    current_budget,
    record_coverage,
    use_budget,
)
from repro.engine.cache import mapping_key
from repro.engine.checkpoint import (
    CheckpointJournal,
    claim_shards,
    default_journal,
    shard_entry_key,
    sweep_key,
)
from repro.engine.instrumentation import engine_stats
from repro.engine.kernel import use_backend
from repro.engine.parallel import ParallelUniverseRunner, get_shared
from repro.engine.store import default_store, stable_digest
from repro.engine.symmetry import (
    SweepPlan,
    mapping_permutation_invariant,
    plan_sweep,
    resolve_shards,
    shard_of_instance,
    use_ground_keys,
)
from repro.errors import BudgetExceeded, WorkerFault, governed_coverage


class EquivalenceRelation(Protocol):
    """An equivalence relation on ground instances."""

    def related(self, left: Instance, right: Instance) -> bool:
        """Are the two ground instances equivalent?"""
        ...


@dataclass(frozen=True)
class Equality:
    """The equality relation ``=`` (gives inverses)."""

    def related(self, left: Instance, right: Instance) -> bool:
        return left == right

    def __str__(self) -> str:
        return "="


@dataclass(frozen=True)
class SolutionEquivalence:
    """The paper's ∼M: equal spaces of solutions (gives quasi-inverses)."""

    mapping: SchemaMapping

    def related(self, left: Instance, right: Instance) -> bool:
        return data_exchange_equivalent(self.mapping, left, right)

    def __str__(self) -> str:
        return f"∼{self.mapping.name or 'M'}"


def _relation_permutation_invariant(relation: EquivalenceRelation) -> bool:
    """Is *relation* invariant under permutations of the constants?

    Equality always is; a solution-space relation inherits invariance
    from its mapping.  Unknown custom relations are conservatively
    treated as non-invariant, which keeps their sweeps on the full
    universe.
    """
    if isinstance(relation, Equality):
        return True
    mapping = getattr(relation, "mapping", None)
    if mapping is not None and hasattr(mapping, "dependencies"):
        return mapping_permutation_invariant(mapping)
    return False


def _plan_sweep(
    symmetry: Optional[str],
    universe: Sequence[Instance],
    *,
    mappings: Sequence[SchemaMapping] = (),
    relations: Sequence[EquivalenceRelation] = (),
) -> SweepPlan:
    """:func:`repro.engine.symmetry.plan_sweep`, additionally vetoing
    the reduction when any equivalence relation involved is not known
    to be permutation-invariant."""
    return plan_sweep(
        symmetry,
        universe,
        mappings=mappings,
        extra_invariant=all(
            _relation_permutation_invariant(rel) for rel in relations
        ),
    )


def _relation_content_key(relation: EquivalenceRelation) -> Tuple:
    """Content identity of an equivalence relation for fingerprinting:
    solution-space relations digest their mapping's dependencies, so
    two anonymous mappings with different constraints never collide."""
    inner = getattr(relation, "mapping", None)
    if inner is not None and hasattr(inner, "dependencies"):
        return (type(relation).__name__, mapping_key(inner))
    return (type(relation).__name__, str(relation))


def _sweep_fingerprint(
    label: str,
    mappings: Sequence[SchemaMapping],
    relations: Sequence[EquivalenceRelation],
    pools: Sequence[Sequence[Instance]],
    mode: str,
) -> str:
    """The derivation key a checkpoint entry is guarded by.

    Digests the sweep's actual *content* — the mappings' dependencies,
    the relations, every instance in every pool, and the effective
    sweep mode — so a journal written for a different sweep can never
    be honoured just because its universe happens to have the same
    length (the checkpoint module's fingerprint sanity guard).
    """
    parts: List[object] = [label, mode]
    parts.extend(mapping_key(current) for current in mappings)
    parts.extend(_relation_content_key(current) for current in relations)
    for pool in pools:
        parts.append([instance.sorted_facts() for instance in pool])
    return stable_digest(parts)[:16]


def _worst_coverage(coverages: Iterable[str]) -> str:
    """Merged coverage of shard reports: exhaustive only when every
    shard was, else the first shard's partial coverage (deterministic
    — shards merge in shard-id order)."""
    for coverage in coverages:
        if coverage != COVERAGE_EXHAUSTIVE:
            return coverage
    return COVERAGE_EXHAUSTIVE


def _first_positions(instances: Sequence[Instance]) -> Dict[Instance, int]:
    positions: Dict[Instance, int] = {}
    for index, instance in enumerate(instances):
        positions.setdefault(instance, index)
    return positions


def _serial_pair_order(
    outer: Sequence[Instance], universe: Sequence[Instance]
) -> Callable[[Tuple], Tuple[int, int]]:
    """Sort key restoring the serial sweep's violation order: by the
    left instance's position in the outer stream, then the right
    instance's position in the universe scan."""
    outer_positions = _first_positions(outer)
    inner_positions = _first_positions(universe)
    fallback_outer = len(outer_positions)
    fallback_inner = len(inner_positions)

    def order(pair: Tuple) -> Tuple[int, int]:
        return (
            outer_positions.get(pair[0], fallback_outer),
            inner_positions.get(pair[1], fallback_inner),
        )

    return order


@dataclass(frozen=True)
class SubsetPropertyReport:
    """Outcome of a bounded (∼1,∼2)-subset property check.

    ``violations`` lists pairs (I1, I2) with Sol(I2) ⊆ Sol(I1) for
    which no witness pair (I1', I2') with I1 ∼1 I1', I2 ∼2 I2' and
    I1' ⊆ I2' exists in the witness universe.  ``checked`` counts the
    containment pairs examined.

    ``coverage`` records whether the sweep ran to completion
    (``"exhaustive"``) or was cut short by the governance layer
    (``"deadline"`` / ``"budget"`` / ``"faulted"``); for a partial
    sweep, ``holds`` speaks only for the ``instances_checked`` leading
    universe instances actually examined (cumulative across resumed
    runs).

    ``orbits_checked`` is non-zero only for symmetry-reduced sweeps
    (``symmetry="orbits"``): the orbit representatives examined, with
    ``instances_checked`` counting the universe instances they stand
    for.  Violations then name representatives — concrete, replayable
    instances; :func:`repro.engine.symmetry.orbit_transport` carries
    them onto any other orbit member.
    """

    holds: bool
    checked: int
    violations: Tuple[Tuple[Instance, Instance], ...] = ()
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE


def _default_witnesses(universe: Sequence[Instance]) -> List[Instance]:
    """Universe closed under pairwise unions.

    The paper's positive subset-property proofs (Example 3.10,
    Proposition 3.11) construct the witness I2' = I1 ∪ I2, so closing
    the witness pool under unions makes the bounded check complete on
    those arguments.
    """
    pool = list(universe)
    seen = set(pool)
    for left in universe:
        for right in universe:
            union = left.union(right)
            if union not in seen:
                seen.add(union)
                pool.append(union)
    return pool


def _subset_property_task(
    left: Instance,
) -> List[Tuple[Instance, bool]]:
    """Per-left-instance worker: ``(right, witnessed)`` for every
    containment pair, in the serial iteration order."""
    mapping, relation1, relation2, universe, witnesses = get_shared()
    events: List[Tuple[Instance, bool]] = []
    for right in universe:
        if not solutions_contained(mapping, right, left):
            continue  # only pairs with Sol(I2) ⊆ Sol(I1) matter
        events.append(
            (
                right,
                _has_subset_witness(
                    mapping, relation1, relation2, left, right, witnesses
                ),
            )
        )
    return events


def _resolve_budget(budget: Optional[Budget]) -> Optional[Budget]:
    """The budget a checker entry point should run under: an explicit
    one, else the ambient one, else whatever the environment knobs
    (``REPRO_DEADLINE`` & friends, set by the CLI) configure."""
    if budget is not None:
        return budget
    ambient = current_budget()
    if ambient is not None:
        return ambient
    return Budget.from_env()


def subset_property(
    mapping: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    universe: Sequence[Instance],
    *,
    witness_universe: Optional[Sequence[Instance]] = None,
    stop_at_first_violation: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    checkpoint: Optional[CheckpointJournal] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
) -> SubsetPropertyReport:
    """Bounded check of the (∼1,∼2)-subset property (Definition 3.4).

    For every pair from *universe* with Sol(M, I2) ⊆ Sol(M, I1), look
    for witnesses (I1', I2') in *witness_universe* (default: the
    universe closed under pairwise unions) with I1 ∼1 I1', I2 ∼2 I2'
    and I1' ⊆ I2'.

    The outer loop fans out per left instance through the engine's
    :class:`ParallelUniverseRunner` (*workers* defaults to the
    engine-wide setting); results merge in input order, so the report
    is identical for every worker count.

    *budget* (default: ambient, else from the ``REPRO_*`` environment
    knobs) bounds the sweep; when it trips, the report comes back with
    partial ``coverage`` instead of an exception.  *checkpoint*
    (default: the ``REPRO_CHECKPOINT`` journal) records the verified
    prefix so an interrupted sweep resumes where it stopped; every
    entry carries the sweep fingerprint, so a journal written for a
    different mapping or universe is discarded, never honoured.

    *symmetry* (default: ``REPRO_SYMMETRY``, else ``"full"``): with
    ``"orbits"``, only one representative per domain-permutation
    orbit enters the outer loop — sound because the property is
    invariant under constant renaming for permutation-invariant
    mappings and relations; the inner (witness) quantifiers still
    range over the full pools.  Unsound situations (literal constants
    in a mapping, a non-closed universe) silently fall back to the
    full sweep.

    *backend* (default: ``REPRO_BACKEND``, else ``"object"``): with
    ``"kernel"``, homomorphism probes, premise matching, and verdict
    keys run on the compiled integer kernel
    (:mod:`repro.engine.kernel`); with ``"sql"``, the chase and the
    homomorphism joins execute inside SQLite
    (:mod:`repro.engine.sqlbackend`, scratch file via
    ``REPRO_SQL_DB``) — identical verdicts and witnesses either way,
    installed before the fan-out so forked workers inherit it.

    *shards* / *shard_id* (default: ``REPRO_SHARDS`` /
    ``REPRO_SHARD_ID``): partition the outer stream by content digest
    of each instance's canonical form (orbits never straddle shards).
    With a fixed *shard_id* this process sweeps exactly that shard and
    the report covers it alone — independent workers each take one id
    and coordinate through the shared checkpoint journal (per-shard
    entries plus lease files; an expired lease is stolen, so a dead
    worker's shard is re-run by whoever notices).  With *shards* > 1
    and no *shard_id*, this process claims every shard not already
    done elsewhere and merges the shard reports back into exactly the
    unsharded report (byte-identical under
    ``stop_at_first_violation=False``; with early stopping each shard
    stops at its own first violation, so only the verdict — not the
    pair counts — matches the serial run).
    """
    default_store()  # honour REPRO_STORE before any cache traffic
    universe = list(universe)
    witnesses = (
        list(witness_universe)
        if witness_universe is not None
        else _default_witnesses(universe)
    )
    plan = _plan_sweep(
        symmetry, universe, mappings=(mapping,), relations=(relation1, relation2)
    )
    budget = _resolve_budget(budget)
    journal = checkpoint if checkpoint is not None else default_journal()
    key = sweep_key(
        "subset_property",
        mapping.name or mapping,
        relation1,
        relation2,
        len(universe),
        len(witnesses),
        plan.mode,
    )
    fingerprint = _sweep_fingerprint(
        "subset_property",
        (mapping,),
        (relation1, relation2),
        (universe, witnesses),
        plan.mode,
    )
    shards, shard_id = resolve_shards(shards, shard_id)

    def run_shard(which: Optional[int], shard_plan: SweepPlan) -> SubsetPropertyReport:
        shard_key = key if which is None else shard_entry_key(key, which, shards)
        return _subset_sweep(
            mapping,
            relation1,
            relation2,
            universe,
            witnesses,
            shard_plan,
            key=shard_key,
            fingerprint=fingerprint,
            stop_at_first_violation=stop_at_first_violation,
            workers=workers,
            budget=budget,
            journal=journal,
            backend=backend,
        )

    if shards <= 1:
        return run_shard(None, plan)
    if shard_id is not None:
        return run_shard(shard_id, plan.shard(shards, shard_id))
    owner = uuid.uuid4().hex
    reports: Dict[int, SubsetPropertyReport] = {}
    for claimed in claim_shards(
        journal, key, shards, owner=owner, fingerprint=fingerprint
    ):
        reports[claimed] = run_shard(claimed, plan.shard(shards, claimed))
    return _merge_subset_reports(
        reports, plan, universe, shards=shards, key=key, journal=journal
    )


def _subset_sweep(
    mapping: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    universe: Sequence[Instance],
    witnesses: Sequence[Instance],
    plan: SweepPlan,
    *,
    key: str,
    fingerprint: Optional[str],
    stop_at_first_violation: bool,
    workers: Optional[int],
    budget: Optional[Budget],
    journal: Optional[CheckpointJournal],
    backend: Optional[str],
) -> SubsetPropertyReport:
    """One journal-backed sweep over *plan*'s outer stream — the whole
    check when unsharded, one shard's share otherwise."""
    outer = plan.outer
    start = (
        journal.resume_index(key, len(outer), fingerprint) if journal else 0
    )
    prior = (
        journal.prior_verdict(key)
        if journal and start
        else {"ok": True, "violations": 0}
    )
    runner = ParallelUniverseRunner(workers)
    shared = (mapping, relation1, relation2, universe, witnesses)
    checked = 0
    position = start
    instances_checked = plan.covered_upto(start)
    orbits_checked = start if plan.reduced else 0
    coverage = COVERAGE_EXHAUSTIVE
    violations: List[Tuple[Instance, Instance]] = []

    def report(holds: bool) -> SubsetPropertyReport:
        return SubsetPropertyReport(
            holds and prior["ok"],
            checked,
            tuple(violations),
            coverage=coverage,
            instances_checked=instances_checked,
            orbits_checked=orbits_checked,
        )

    def note_progress(flush: bool = False) -> None:
        if journal is not None:
            journal.record(
                key,
                verified_upto=position,
                total=len(outer),
                ok=prior["ok"] and not violations,
                violations=prior["violations"] + len(violations),
                fingerprint=fingerprint,
                flush=flush,
            )

    with engine_stats().phase("check.subset_property"), use_budget(
        budget
    ), use_ground_keys(plan.ground_keys), use_backend(backend):
        results = runner.map_iter(
            _subset_property_task, outer[start:], shared=shared, budget=budget
        )
        try:
            for left, events in zip(outer[start:], results):
                for right, witnessed in events:
                    checked += 1
                    if witnessed:
                        continue
                    violations.append((left, right))
                    if stop_at_first_violation:
                        results.close()
                        if journal is not None:
                            journal.complete(
                                key,
                                total=len(outer),
                                ok=False,
                                violations=prior["violations"] + len(violations),
                                fingerprint=fingerprint,
                            )
                        return report(False)
                instances_checked += plan.weight_of(position)
                position += 1
                if plan.reduced:
                    orbits_checked += 1
                note_progress()
        except (BudgetExceeded, WorkerFault) as error:
            coverage = governed_coverage(error)
            if coverage is None:
                raise
            note_progress(flush=True)
            record_coverage(
                "check.subset_property", coverage, str(error), instances_checked
            )
            return report(not violations)
    if journal is not None:
        journal.complete(
            key,
            total=len(outer),
            ok=prior["ok"] and not violations,
            violations=prior["violations"] + len(violations),
            fingerprint=fingerprint,
        )
    return report(not violations)


def _merge_subset_reports(
    reports: Dict[int, SubsetPropertyReport],
    plan: SweepPlan,
    universe: Sequence[Instance],
    *,
    shards: int,
    key: str,
    journal: Optional[CheckpointJournal],
) -> SubsetPropertyReport:
    """Fold per-shard reports back into the unsharded report.

    Violations are re-sorted into the serial sweep's pair order and
    the counters summed — the outer stream is partitioned exactly, so
    under ``stop_at_first_violation=False`` the merge reproduces the
    serial report byte for byte.  Shards completed by peer processes
    (absent from *reports*) contribute their journal verdict: their
    ok/violation counts fold into ``holds`` and ``checked`` stays
    local, mirroring how a resumed unsharded sweep accounts for its
    pre-restart prefix.
    """
    holds = all(report.holds for report in reports.values())
    if journal is not None:
        journal.reload()
        for shard in range(shards):
            if shard in reports:
                continue
            prior = journal.prior_verdict(shard_entry_key(key, shard, shards))
            if not prior["ok"] or prior["violations"]:
                holds = False
    order = _serial_pair_order(plan.outer, universe)
    violations = tuple(
        sorted(
            (
                pair
                for report in reports.values()
                for pair in report.violations
            ),
            key=order,
        )
    )
    return SubsetPropertyReport(
        holds and not violations,
        sum(report.checked for report in reports.values()),
        violations,
        coverage=_worst_coverage(
            reports[shard].coverage for shard in sorted(reports)
        ),
        instances_checked=sum(
            report.instances_checked for report in reports.values()
        ),
        orbits_checked=sum(
            report.orbits_checked for report in reports.values()
        ),
    )


def _has_subset_witness(
    mapping: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    left: Instance,
    right: Instance,
    witnesses: Sequence[Instance],
) -> bool:
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if left_prime.issubset(right_prime) and relation2.related(
                right, right_prime
            ):
                return True
    return False


def _unique_solutions_task(index: int) -> List[Tuple[Instance, Instance]]:
    """Per-left-index worker: ∼M-equivalent pairs (left, right) with
    right after left in the universe order."""
    mapping, ordered = get_shared()
    left = ordered[index]
    return [
        (left, right)
        for right in ordered[index + 1 :]
        if left != right and data_exchange_equivalent(mapping, left, right)
    ]


def _unique_solutions_orbit_task(index: int) -> List[Tuple[Instance, Instance]]:
    """Per-representative worker for orbit-mode sweeps: ∼M-equivalent
    pairs (rep, right) with right ranging over the *full* universe.

    The upper-triangle cut of the full sweep would be unsound here — a
    permuted copy π(I) of a later universe instance can precede the
    orbit representative in universe order — so the inner loop instead
    compares the representative against every *other* instance.
    """
    mapping, representatives, ordered = get_shared()
    left = representatives[index]
    return [
        (left, right)
        for right in ordered
        if left != right and data_exchange_equivalent(mapping, left, right)
    ]


def unique_solutions_property(
    mapping: SchemaMapping,
    universe: Sequence[Instance],
    *,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
) -> Tuple[bool, Tuple[Tuple[Instance, Instance], ...]]:
    """Bounded check of the unique-solutions property (from [3]).

    Returns (holds, violations): pairs of *distinct* instances from
    the universe with equal solution spaces.  A violation certifies
    non-invertibility.  Fans out per left instance with deterministic
    merge order.

    The return value is a :class:`~repro.engine.budget.SweepVerdict`:
    it unpacks as the historical 2-tuple and additionally carries
    ``coverage`` / ``instances_checked`` when a *budget* (explicit,
    ambient, or environment-configured) cuts the sweep short.

    In ``symmetry="orbits"`` mode only orbit representatives drive the
    outer loop (the inner loop still ranges over the full universe, so
    the verdict matches the full sweep exactly); ``orbits_checked`` on
    the verdict counts them.

    *shards* / *shard_id* partition the outer loop by instance content
    digest (see :func:`repro.engine.symmetry.shard_of_instance`): a
    fixed *shard_id* sweeps just that slice, no *shard_id* sweeps all
    shards here and merges the slices back into exactly the unsharded
    verdict.
    """
    default_store()
    ordered = list(universe)
    plan = _plan_sweep(symmetry, ordered, mappings=(mapping,))
    budget = _resolve_budget(budget)
    shards, shard_id = resolve_shards(shards, shard_id)
    if shards <= 1:
        return _unique_solutions_sweep(
            mapping, ordered, plan, None,
            workers=workers, budget=budget, backend=backend,
        )
    shard_ids = [shard_id] if shard_id is not None else list(range(shards))
    verdicts = [
        _unique_solutions_sweep(
            mapping, ordered, plan, (shards, which),
            workers=workers, budget=budget, backend=backend,
        )
        for which in shard_ids
    ]
    if shard_id is not None:
        return verdicts[0]
    return _merge_sweep_verdicts(verdicts, plan, ordered)


def _unique_solutions_sweep(
    mapping: SchemaMapping,
    ordered: Sequence[Instance],
    plan: SweepPlan,
    shard: Optional[Tuple[int, int]],
    *,
    workers: Optional[int],
    budget: Optional[Budget],
    backend: Optional[str],
) -> SweepVerdict:
    """One (possibly shard-restricted) unique-solutions sweep.

    Under a reduced plan the shard restricts the representative
    stream via :meth:`SweepPlan.shard`; under a full plan it restricts
    the left *indices* directly, preserving the serial upper-triangle
    cut (each kept left index still compares against every later
    universe instance, so the shard slices partition the serial pair
    stream exactly).
    """
    runner = ParallelUniverseRunner(workers)
    violations: List[Tuple[Instance, Instance]] = []
    coverage = COVERAGE_EXHAUSTIVE
    instances_checked = 0
    orbits_checked = 0
    position = 0
    work_plan = plan
    with engine_stats().phase("check.unique_solutions"), use_budget(
        budget
    ), use_ground_keys(plan.ground_keys), use_backend(backend):
        if plan.reduced:
            if shard is not None:
                work_plan = plan.shard(*shard)
            results = runner.map_iter(
                _unique_solutions_orbit_task,
                range(len(work_plan.outer)),
                shared=(mapping, work_plan.outer, ordered),
                budget=budget,
            )
        else:
            if shard is None:
                indices: Sequence[int] = range(len(ordered))
            else:
                shard_count, which = shard
                indices = [
                    index
                    for index in range(len(ordered))
                    if shard_of_instance(ordered[index], shard_count) == which
                ]
            results = runner.map_iter(
                _unique_solutions_task,
                indices,
                shared=(mapping, ordered),
                budget=budget,
            )
        try:
            for found in results:
                violations.extend(found)
                instances_checked += work_plan.weight_of(position)
                position += 1
                if plan.reduced:
                    orbits_checked += 1
        except (BudgetExceeded, WorkerFault) as error:
            coverage = governed_coverage(error)
            if coverage is None:
                raise
            record_coverage(
                "check.unique_solutions", coverage, str(error), instances_checked
            )
    return SweepVerdict(
        not violations,
        tuple(violations),
        coverage=coverage,
        instances_checked=instances_checked,
        orbits_checked=orbits_checked,
    )


def _merge_sweep_verdicts(
    verdicts: Sequence[SweepVerdict],
    plan: SweepPlan,
    ordered: Sequence[Instance],
) -> SweepVerdict:
    """Fold per-shard sweep verdicts back into the unsharded one
    (violations re-sorted into serial pair order, counters summed)."""
    order = _serial_pair_order(ordered, ordered)
    violations = tuple(
        sorted(
            (pair for verdict in verdicts for pair in verdict.violators),
            key=order,
        )
    )
    return SweepVerdict(
        not violations and all(verdict.ok for verdict in verdicts),
        violations,
        coverage=_worst_coverage(verdict.coverage for verdict in verdicts),
        instances_checked=sum(
            verdict.instances_checked for verdict in verdicts
        ),
        orbits_checked=sum(verdict.orbits_checked for verdict in verdicts),
    )


@dataclass(frozen=True)
class InverseCheckReport:
    """Outcome of a bounded (∼1,∼2)-inverse check.

    ``mismatches`` are pairs (I1, I2) on which the two sides of
    Definition 3.3 disagree, with the direction recorded:
    ``"id_only"`` means (I1,I2) ∈ Inst(Id)[∼1,∼2] but not in
    Inst(M∘M')[∼1,∼2] over the witness pool, and ``"comp_only"`` the
    converse.

    ``coverage`` / ``instances_checked`` mirror
    :class:`SubsetPropertyReport`: ``"exhaustive"`` means every pair
    was examined, anything else means the governance layer stopped the
    sweep after ``instances_checked`` left instances.
    ``orbits_checked`` is non-zero only under ``symmetry="orbits"``,
    counting the orbit representatives that drove the outer loop.
    """

    holds: bool
    checked: int
    mismatches: Tuple[Tuple[Instance, Instance, str], ...] = ()
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.coverage == COVERAGE_EXHAUSTIVE


def is_quasi_inverse(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    universe: Sequence[Instance],
    *,
    witness_universe: Optional[Sequence[Instance]] = None,
    max_nulls: int = 7,
    stop_at_first_mismatch: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    composition_test: Optional["CompositionTest"] = None,
) -> InverseCheckReport:
    """Bounded check that *candidate* is a quasi-inverse of *mapping*.

    Instantiates Definition 3.8: both ∼1 and ∼2 are ∼M.  Use
    :func:`is_generalized_inverse` for other relation pairs.
    """
    equivalence = SolutionEquivalence(mapping)
    return is_generalized_inverse(
        mapping,
        candidate,
        equivalence,
        equivalence,
        universe,
        workers=workers,
        witness_universe=witness_universe,
        max_nulls=max_nulls,
        stop_at_first_mismatch=stop_at_first_mismatch,
        budget=budget,
        symmetry=symmetry,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
        composition_test=composition_test,
    )


def is_generalized_inverse(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    universe: Sequence[Instance],
    *,
    witness_universe: Optional[Sequence[Instance]] = None,
    max_nulls: int = 7,
    stop_at_first_mismatch: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    composition_test: Optional["CompositionTest"] = None,
) -> InverseCheckReport:
    """Bounded check of Definition 3.3: is *candidate* a
    (∼1,∼2)-inverse of *mapping*?

    For every pair (I1, I2) from *universe*, compares membership of
    (I1, I2) in Inst(Id)[∼1,∼2] and in Inst(M∘M')[∼1,∼2], with the
    existential witnesses (I1', I2') drawn from *witness_universe*
    (default: the universe closed under pairwise unions).  A reported
    mismatch of kind ``"comp_only"`` is a definite refutation; one of
    kind ``"id_only"`` refutes up to the witness pool.

    *budget* (default: ambient, else environment) governs the sweep;
    when it trips, the report carries partial ``coverage``.
    ``symmetry="orbits"`` reduces the outer (I1) loop to orbit
    representatives when both mappings and both relations are
    permutation-invariant; the inner loops stay on the full pools.
    *shards* / *shard_id* partition the outer loop exactly as in
    :func:`subset_property` (merged reports reproduce the serial one
    under ``stop_at_first_mismatch=False``).
    """
    default_store()
    universe = list(universe)
    witnesses = (
        list(witness_universe)
        if witness_universe is not None
        else _default_witnesses(universe)
    )
    plan = _plan_sweep(
        symmetry,
        universe,
        mappings=(mapping, candidate),
        relations=(relation1, relation2),
    )
    budget = _resolve_budget(budget)
    shards, shard_id = resolve_shards(shards, shard_id)
    shared = (
        mapping,
        candidate,
        relation1,
        relation2,
        universe,
        witnesses,
        max_nulls,
        composition_test,
    )
    with engine_stats().phase("check.generalized_inverse"), use_budget(
        budget
    ), use_ground_keys(plan.ground_keys), use_backend(backend):
        return _sharded_inverse_check(
            _generalized_inverse_task,
            plan,
            universe,
            shared,
            stop_at_first_mismatch,
            workers=workers,
            budget=budget,
            phase="check.generalized_inverse",
            shards=shards,
            shard_id=shard_id,
        )


def _in_id_closure(
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    witnesses: Sequence[Instance],
    left: Instance,
    right: Instance,
) -> bool:
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if left_prime.issubset(right_prime) and relation2.related(
                right, right_prime
            ):
                return True
    return False


def _in_comp_closure(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    witnesses: Sequence[Instance],
    left: Instance,
    right: Instance,
    max_nulls: int,
    composition_test: Optional["CompositionTest"] = None,
) -> bool:
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if not relation2.related(right, right_prime):
                continue
            if _composition_test_membership(
                composition_test, mapping, candidate,
                left_prime, right_prime, max_nulls,
            ):
                return True
    return False


#: A pluggable composition-membership decision procedure: called as
#: ``test(mapping, candidate, left, right, max_nulls)`` and expected to
#: return exactly what :func:`composition_membership` would.  The
#: algebra planner passes evaluation-plan-specific tests (materialized
#: model checks, expression-directed membership); ``None`` keeps the
#: default.  Must be picklable — it ships to forked workers as shared
#: state.
CompositionTest = Callable[
    [SchemaMapping, SchemaMapping, Instance, Instance, int], bool
]


def _composition_test_membership(
    test: Optional[CompositionTest],
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    left: Instance,
    right: Instance,
    max_nulls: int,
) -> bool:
    if test is None:
        return composition_membership(
            mapping, candidate, left, right, max_nulls=max_nulls
        )
    return test(mapping, candidate, left, right, max_nulls)


_InverseEvents = Tuple[List[Tuple[Instance, bool, bool]], Optional[BaseException]]


def _generalized_inverse_task(left: Instance) -> _InverseEvents:
    """Per-left worker for :func:`is_generalized_inverse`: the two
    closure memberships per right, in serial order.  An exception is
    returned (not raised) with the events that preceded it, so the
    merge can replay the serial control flow exactly."""
    (
        mapping,
        candidate,
        relation1,
        relation2,
        universe,
        witnesses,
        max_nulls,
        composition_test,
    ) = get_shared()
    events: List[Tuple[Instance, bool, bool]] = []
    for right in universe:
        try:
            in_id = _in_id_closure(relation1, relation2, witnesses, left, right)
            in_comp = _in_comp_closure(
                mapping, candidate, relation1, relation2, witnesses,
                left, right, max_nulls, composition_test,
            )
        except Exception as error:  # replayed in-order by the merge
            return events, error
        events.append((right, in_id, in_comp))
    return events, None


def _is_inverse_task(left: Instance) -> _InverseEvents:
    """Per-left worker for :func:`is_inverse` (exact membership).

    The default test prepares one :class:`MembershipSearch` per left
    (chase, null order, compiled rules) and reuses it for every right.
    It is built at the first right, so a null-budget error surfaces
    exactly where the per-pair call would raise it."""
    mapping, candidate, universe, max_nulls, composition_test = get_shared()
    events: List[Tuple[Instance, bool, bool]] = []
    search: Optional[MembershipSearch] = None
    for right in universe:
        try:
            if composition_test is None:
                if search is None:
                    search = MembershipSearch(
                        mapping, candidate, left, max_nulls=max_nulls
                    )
                in_comp = composition_membership(
                    mapping, candidate, left, right, search=search
                )
            else:
                in_comp = composition_test(
                    mapping, candidate, left, right, max_nulls
                )
        except Exception as error:
            return events, error
        events.append((right, left.issubset(right), in_comp))
    return events, None


def _sharded_inverse_check(
    task: Callable[[Instance], _InverseEvents],
    plan: SweepPlan,
    universe: Sequence[Instance],
    shared: Tuple,
    stop_at_first_mismatch: bool,
    *,
    workers: Optional[int],
    budget: Optional[Budget],
    phase: str,
    shards: int,
    shard_id: Optional[int],
) -> InverseCheckReport:
    """Run an inverse-style pair check unsharded, on one shard, or on
    every shard locally with the shard reports merged back."""
    runner = ParallelUniverseRunner(workers)
    if shards <= 1:
        return _merge_inverse_events(
            runner, task, plan, shared, stop_at_first_mismatch,
            budget=budget, phase=phase,
        )
    shard_ids = [shard_id] if shard_id is not None else list(range(shards))
    reports = [
        _merge_inverse_events(
            runner, task, plan.shard(shards, which), shared,
            stop_at_first_mismatch, budget=budget, phase=phase,
        )
        for which in shard_ids
    ]
    if shard_id is not None:
        return reports[0]
    return _merge_inverse_reports(reports, plan, universe)


def _merge_inverse_reports(
    reports: Sequence[InverseCheckReport],
    plan: SweepPlan,
    universe: Sequence[Instance],
) -> InverseCheckReport:
    """Fold per-shard inverse reports back into the unsharded one
    (mismatches re-sorted into serial pair order, counters summed)."""
    order = _serial_pair_order(plan.outer, universe)
    mismatches = tuple(
        sorted(
            (entry for report in reports for entry in report.mismatches),
            key=order,
        )
    )
    return InverseCheckReport(
        not mismatches and all(report.holds for report in reports),
        sum(report.checked for report in reports),
        mismatches,
        coverage=_worst_coverage(report.coverage for report in reports),
        instances_checked=sum(
            report.instances_checked for report in reports
        ),
        orbits_checked=sum(report.orbits_checked for report in reports),
    )


def _merge_inverse_events(
    runner: ParallelUniverseRunner,
    task: Callable[[Instance], _InverseEvents],
    plan: SweepPlan,
    shared: Tuple,
    stop_at_first_mismatch: bool,
    *,
    budget: Optional[Budget] = None,
    phase: str = "check.inverse",
) -> InverseCheckReport:
    """Fold per-left event streams into an :class:`InverseCheckReport`
    exactly as the serial pair loop would.

    Exceptions an algorithm raised in a worker are re-raised at their
    serial position; governed budget trips (deadline / instance cap /
    RSS) and recovered-from worker faults instead degrade the report
    to a partial ``coverage``.  The outer stream is *plan*'s: orbit
    representatives under a reduced plan (each advancing
    ``instances_checked`` by its orbit size), the full universe
    otherwise.
    """
    checked = 0
    position = 0
    instances_checked = 0
    orbits_checked = 0
    coverage = COVERAGE_EXHAUSTIVE
    mismatches: List[Tuple[Instance, Instance, str]] = []

    def report(holds: bool) -> InverseCheckReport:
        return InverseCheckReport(
            holds,
            checked,
            tuple(mismatches),
            coverage=coverage,
            instances_checked=instances_checked,
            orbits_checked=orbits_checked,
        )

    results = runner.map_iter(task, plan.outer, shared=shared, budget=budget)
    try:
        for left, (events, error) in zip(plan.outer, results):
            for right, in_id, in_comp in events:
                checked += 1
                if in_id == in_comp:
                    continue
                kind = "id_only" if in_id else "comp_only"
                mismatches.append((left, right, kind))
                if stop_at_first_mismatch:
                    results.close()
                    return report(False)
            if error is not None:
                results.close()
                governed = governed_coverage(error)
                if governed is None:
                    raise error
                coverage = governed
                record_coverage(phase, coverage, str(error), instances_checked)
                return report(not mismatches)
            instances_checked += plan.weight_of(position)
            position += 1
            if plan.reduced:
                orbits_checked += 1
    except (BudgetExceeded, WorkerFault) as error:
        coverage = governed_coverage(error)
        if coverage is None:
            raise
        record_coverage(phase, coverage, str(error), instances_checked)
        return report(not mismatches)
    return report(not mismatches)


def is_inverse(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    universe: Sequence[Instance],
    *,
    max_nulls: int = 7,
    stop_at_first_mismatch: bool = True,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    symmetry: Optional[str] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    composition_test: Optional[CompositionTest] = None,
) -> InverseCheckReport:
    """Bounded check that *candidate* is an inverse of *mapping*.

    Definition (Section 2): Inst(Id) = Inst(M ∘ M') — i.e. for ground
    pairs, I1 ⊆ I2 iff (I1, I2) ∈ Inst(M ∘ M').  Equality of the two
    relations is checked pairwise over *universe*; both membership
    tests are exact, so any mismatch is a definite refutation.

    *budget* (default: ambient, else environment) governs the sweep;
    when it trips, the report carries partial ``coverage``.
    ``symmetry="orbits"`` reduces the outer loop to orbit
    representatives when both mappings are permutation-invariant.
    *shards* / *shard_id* partition the outer loop exactly as in
    :func:`subset_property`.  *composition_test* substitutes a
    plan-chosen decision procedure for the default
    :func:`composition_membership` — it must decide the same relation
    (the algebra layer passes materialized or expression-directed
    tests), so the report is identical for every choice.
    """
    default_store()
    universe = list(universe)
    plan = _plan_sweep(symmetry, universe, mappings=(mapping, candidate))
    budget = _resolve_budget(budget)
    shards, shard_id = resolve_shards(shards, shard_id)
    shared = (mapping, candidate, universe, max_nulls, composition_test)
    with engine_stats().phase("check.is_inverse"), use_budget(
        budget
    ), use_ground_keys(plan.ground_keys), use_backend(backend):
        return _sharded_inverse_check(
            _is_inverse_task,
            plan,
            universe,
            shared,
            stop_at_first_mismatch,
            workers=workers,
            budget=budget,
            phase="check.is_inverse",
            shards=shards,
            shard_id=shard_id,
        )

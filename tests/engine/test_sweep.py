"""The sweep driver (:mod:`repro.engine.sweep`).

One table drives every check kind through the same matrix — workers
{1, 2} × symmetry {full, orbits} × shards {1, 3 merged, each
``shard_id``} — with stop-at-first off:

* the merged report equals the unsharded one;
* the ``shard_id`` slices partition the pairs checked, the instances
  checked and the violations;
* ``instances_processed`` counts one task per outer instance, for
  every worker and shard count;
* a journaled (subset or round-trip) sweep cut short by a budget
  resumes to the rest of the same report.

Malformed sweep knobs in the environment raise
:class:`~repro.errors.ConfigError` instead of being dropped.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.catalog import (
    projection,
    projection_quasi_inverse,
    thm_4_10,
    unique_solutions_separation,
)
from repro.core.framework import (
    Equality,
    SolutionEquivalence,
    is_generalized_inverse,
    is_inverse,
    is_quasi_inverse,
    subset_property,
    unique_solutions_property,
)
from repro.core.mapping import SchemaMapping
from repro.dataexchange.recovery import faithful_on, sound_on
from repro.datamodel.schemas import Schema
from repro.engine import (
    engine_stats,
    fork_available,
    reset_all_caches,
    reset_engine_stats,
)
from repro.engine.budget import Budget, SweepVerdict, reset_coverage_events
from repro.engine.checkpoint import CheckpointJournal
from repro.errors import ConfigError
from repro.workloads import instance_universe

SHARDS = 3


@pytest.fixture(autouse=True)
def _no_coverage_events():
    yield
    reset_coverage_events()  # budget-cut sweeps must not leak partial events


def _lossy_pair():
    """A reverse mapping that is neither sound nor faithful: P-facts
    come back as P and Q, Q-facts do not come back at all."""
    forward = SchemaMapping.from_text(
        Schema.of({"P": 1, "Q": 1}),
        Schema.of({"S": 1, "T": 1}),
        "P(x) -> S(x)\nQ(x) -> T(x)",
        name="Split",
    )
    reverse = SchemaMapping.from_text(
        Schema.of({"S": 1, "T": 1}),
        Schema.of({"P": 1, "Q": 1}),
        "S(x) -> P(x) & Q(x)",
        name="Split'",
    )
    return forward, reverse


def _subset(universe, **options):
    mapping = unique_solutions_separation()
    equivalence = SolutionEquivalence(mapping)
    return subset_property(
        mapping, equivalence, equivalence, universe,
        stop_at_first_violation=False, **options,
    )


def _unique(universe, **options):
    return unique_solutions_property(thm_4_10(), universe, **options)


def _quasi(universe, **options):
    return is_quasi_inverse(
        projection(), projection_quasi_inverse(), universe,
        stop_at_first_mismatch=False, **options,
    )


def _generalized(universe, **options):
    return is_generalized_inverse(
        projection(), projection_quasi_inverse(), Equality(), Equality(),
        universe, stop_at_first_mismatch=False, **options,
    )


def _inverse(universe, **options):
    return is_inverse(
        projection(), projection_quasi_inverse(), universe,
        stop_at_first_mismatch=False, **options,
    )


def _sound(universe, **options):
    return sound_on(*_lossy_pair(), universe, **options)


def _faithful(universe, **options):
    return faithful_on(*_lossy_pair(), universe, **options)


@dataclass(frozen=True)
class Kind:
    name: str
    run: Callable
    source: Callable[[], Schema]
    max_facts: int
    shardable: bool = True
    journaled: bool = False

    def universe(self):
        return list(
            instance_universe(self.source(), ["a", "b"], max_facts=self.max_facts)
        )


KINDS = [
    Kind("subset", _subset, lambda: unique_solutions_separation().source, 2,
         journaled=True),
    Kind("unique", _unique, lambda: thm_4_10().source, 1),
    Kind("quasi_inverse", _quasi, lambda: projection().source, 1),
    Kind("generalized_inverse", _generalized, lambda: projection().source, 2),
    Kind("inverse", _inverse, lambda: projection().source, 2),
    Kind("sound_on", _sound, lambda: _lossy_pair()[0].source, 2,
         shardable=False, journaled=True),
    Kind("faithful_on", _faithful, lambda: _lossy_pair()[0].source, 2,
         shardable=False, journaled=True),
]

WORKERS = [1, 2] if fork_available() else [1]


def _fields(report):
    """Every field of a report; a SweepVerdict compares as a tuple only."""
    if isinstance(report, SweepVerdict):
        return (
            report.ok,
            None,
            report.violators,
            report.coverage,
            report.instances_checked,
            report.orbits_checked,
        )
    return (
        report.holds,
        report.checked,
        getattr(report, "violations", getattr(report, "mismatches", None)),
        report.coverage,
        report.instances_checked,
        report.orbits_checked,
    )


def _run(kind, universe, **options):
    reset_all_caches()
    return _fields(kind.run(universe, **options))


def _processed(kind, universe, **options):
    """``instances_processed`` of one sweep."""
    reset_engine_stats()
    kind.run(universe, **options)
    return engine_stats().instances_processed


def _kinds(**flags):
    return pytest.mark.parametrize(
        "kind",
        [
            kind
            for kind in KINDS
            if all(getattr(kind, flag) == value for flag, value in flags.items())
        ],
        ids=lambda kind: kind.name,
    )


def _matrix(test):
    """Run *test* across workers × symmetry."""
    test = pytest.mark.parametrize("symmetry", ["full", "orbits"])(test)
    return pytest.mark.parametrize("workers", WORKERS)(test)


@_matrix
@_kinds(shardable=True)
def test_shards_merge_and_partition(kind, workers, symmetry):
    universe = kind.universe()
    options = dict(workers=workers, symmetry=symmetry)
    whole = _run(kind, universe, shards=1, **options)
    assert whole[3] == "exhaustive"
    assert (whole[5] > 0) == (symmetry == "orbits")  # the plan reduced
    assert _run(kind, universe, shards=SHARDS, **options) == whole
    slices = [
        _run(kind, universe, shards=SHARDS, shard_id=shard, **options)
        for shard in range(SHARDS)
    ]
    if whole[1] is not None:
        assert sum(part[1] for part in slices) == whole[1]
    assert sum(part[4] for part in slices) == whole[4] == len(universe)
    assert sum(part[5] for part in slices) == whole[5]
    found = [violation for part in slices for violation in part[2]]
    assert sorted(map(repr, found)) == sorted(map(repr, whole[2]))
    assert all(part[0] == (not part[2]) for part in slices)
    outer = whole[5] or whole[4]  # one task per outer instance
    assert _processed(kind, universe, shards=1, **options) == outer
    assert _processed(kind, universe, shards=SHARDS, **options) == outer


@_matrix
@_kinds(journaled=True)
def test_journaled_sweep_resumes_to_the_same_report(
    kind, workers, symmetry, tmp_path
):
    universe = kind.universe()
    options = dict(workers=workers, symmetry=symmetry)
    whole = _run(kind, universe, **options)
    journal = CheckpointJournal(str(tmp_path / "whole.json"))
    assert _run(kind, universe, checkpoint=journal, **options) == whole
    path = str(tmp_path / "cut.json")
    cut = _run(
        kind, universe, checkpoint=CheckpointJournal(path),
        budget=Budget(max_instances=2), **options,
    )
    assert cut[3] == "budget"
    resumed = _run(kind, universe, checkpoint=CheckpointJournal(path), **options)
    assert resumed[0] == whole[0]
    assert resumed[3:] == whole[3:]  # the counters are cumulative
    assert cut[2] + resumed[2] == whole[2]
    if whole[1] is not None:
        assert cut[1] + resumed[1] == whole[1]


@_matrix
@_kinds(journaled=True, shardable=True)
def test_journaled_shards_merge_through_the_claim_loop(
    kind, workers, symmetry, tmp_path
):
    universe = kind.universe()
    options = dict(workers=workers, symmetry=symmetry)
    whole = _run(kind, universe, **options)
    journal = CheckpointJournal(str(tmp_path / "shards.json"))
    assert _run(kind, universe, checkpoint=journal, shards=SHARDS, **options) == whole


class TestMalformedKnobs:
    @pytest.mark.parametrize(
        "name", ["REPRO_DEADLINE", "REPRO_MAX_INSTANCES",
                 "REPRO_MAX_CHASE_STEPS", "REPRO_MAX_RSS_MB"],
    )
    def test_budget_knob_raises(self, monkeypatch, name):
        monkeypatch.setenv(name, "ten")
        with pytest.raises(ConfigError) as excinfo:
            Budget.from_env()
        assert excinfo.value.context["knob"] == name

    @pytest.mark.parametrize(
        "knobs",
        [{"REPRO_SHARDS": "four"}, {"REPRO_SHARDS": "4", "REPRO_SHARD_ID": "one"}],
    )
    def test_shard_knob_raises_in_the_driver(self, monkeypatch, knobs):
        for name, value in knobs.items():
            monkeypatch.setenv(name, value)
        kind = KINDS[0]
        with pytest.raises(ConfigError):
            kind.run(kind.universe())

    def test_instance_cap_knob_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_INSTANCES", "2")
        kind = KINDS[0]
        assert kind.run(kind.universe()).coverage == "budget"

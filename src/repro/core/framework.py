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

Each checker is a per-left-instance task plus a report builder; the
sweep around them — planning, sharding, journal, budget, parallel
dispatch, merge — is :func:`repro.engine.sweep.run_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

from repro.datamodel.instances import Instance
from repro.core.mapping import (
    SchemaMapping,
    data_exchange_equivalent,
    solutions_contained,
)
from repro.core.composition import MembershipSearch, composition_membership
from repro.engine.budget import Budget, COVERAGE_EXHAUSTIVE
from repro.engine.cache import mapping_key
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.sweep import Sweep, SweepOutcome, run_sweep
from repro.engine.symmetry import SweepPlan, mapping_permutation_invariant


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


def _relations_invariant(*relations: EquivalenceRelation) -> bool:
    """Are all *relations* invariant under permutations of the
    constants?

    Equality always is; a solution-space relation inherits invariance
    from its mapping.  Unknown custom relations are conservatively
    treated as non-invariant, which keeps their sweeps on the full
    universe.
    """
    for relation in relations:
        if isinstance(relation, Equality):
            continue
        mapping = getattr(relation, "mapping", None)
        if mapping is None or not hasattr(mapping, "dependencies"):
            return False
        if not mapping_permutation_invariant(mapping):
            return False
    return True


def _relation_content_key(relation: EquivalenceRelation) -> Tuple:
    """Content identity of an equivalence relation for fingerprinting:
    solution-space relations digest their mapping's dependencies, so
    two anonymous mappings with different constraints never collide."""
    inner = getattr(relation, "mapping", None)
    if inner is not None and hasattr(inner, "dependencies"):
        return (type(relation).__name__, mapping_key(inner))
    return (type(relation).__name__, str(relation))


def _pair_report(report_type: Callable, outcome: SweepOutcome) -> Any:
    """A :class:`SubsetPropertyReport` or :class:`InverseCheckReport`."""
    return report_type(
        outcome.holds,
        outcome.checked,
        outcome.violations,
        **outcome.coverage_fields(),
    )


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


def _in_id_closure(
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    witnesses: Sequence[Instance],
    left: Instance,
    right: Instance,
) -> bool:
    """Is (left, right) in Inst(Id)[∼1,∼2] over the witness pool: some
    I1' ∼1 left and I2' ∼2 right with I1' ⊆ I2'?"""
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if left_prime.issubset(right_prime) and relation2.related(
                right, right_prime
            ):
                return True
    return False


def _subset_property_task(
    plan: SweepPlan, position: int, context: Tuple
) -> Iterator[Optional[Tuple[Instance, Instance]]]:
    """One entry per containment pair of the left instance, in the
    serial order: None when witnessed, else the violating pair."""
    mapping, relation1, relation2, universe, witnesses = context
    left = plan.outer[position]
    for right in universe:
        if not solutions_contained(mapping, right, left):
            continue  # only pairs with Sol(I2) ⊆ Sol(I1) matter
        witnessed = _in_id_closure(relation1, relation2, witnesses, left, right)
        yield None if witnessed else (left, right)


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

    The sweep options are :func:`repro.engine.sweep.run_sweep`'s:

    * *workers* fans the outer loop out per left instance; the report
      is identical for every worker count.
    * *budget* (default: ambient, else from the ``REPRO_*`` knobs)
      bounds the sweep; when it trips, the report comes back with
      partial ``coverage`` instead of an exception.
    * *checkpoint* (default: the ``REPRO_CHECKPOINT`` journal) records
      the verified prefix so an interrupted sweep resumes where it
      stopped; every entry carries the sweep fingerprint, so a journal
      written for a different mapping or universe is never honoured.
    * *symmetry* ``"orbits"`` puts one representative per
      domain-permutation orbit into the outer loop, which is sound for
      permutation-invariant mappings and relations; the inner
      (witness) quantifiers still range over the full pools.  Unsound
      situations silently fall back to the full sweep.
    * *backend* ``"kernel"`` or ``"sql"`` runs the chase and the
      homomorphism probes on the compiled kernel or inside SQLite,
      with identical verdicts and witnesses.
    * *shards* / *shard_id* partition the outer loop by content digest
      (orbits never straddle shards).  A fixed *shard_id* sweeps that
      shard alone; independent processes coordinate through the shared
      journal's per-shard entries and leases.  Without one, this
      process claims every shard not done elsewhere and merges them
      back into the unsharded report (exactly so under
      ``stop_at_first_violation=False``).
    """
    universe = list(universe)
    witnesses = (
        list(witness_universe)
        if witness_universe is not None
        else _default_witnesses(universe)
    )
    sweep = Sweep(
        phase="check.subset_property",
        task=_subset_property_task,
        context=(mapping, relation1, relation2, universe, witnesses),
        report=partial(_pair_report, SubsetPropertyReport),
        universe=universe,
        mappings=(mapping,),
        invariant=_relations_invariant(relation1, relation2),
        journaled=True,
        identity=(
            _relation_content_key(relation1),
            _relation_content_key(relation2),
        ),
        pools=(witnesses,),
    )
    return run_sweep(
        sweep,
        symmetry=symmetry,
        workers=workers,
        budget=budget,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
        checkpoint=checkpoint,
        stop_at_first=stop_at_first_violation,
    )


def _unique_solutions_task(
    plan: SweepPlan, position: int, context: Tuple
) -> Iterator[Tuple[Instance, Instance]]:
    """∼M-equivalent pairs (left, right) of distinct instances.

    A full sweep cuts the upper triangle: right ranges over the
    universe after left's position.  An orbit sweep cannot — a permuted
    copy π(I) of a later universe instance can precede the orbit
    representative in universe order — so there right ranges over the
    whole universe.
    """
    mapping, universe = context
    left = plan.outer[position]
    for right in universe if plan.reduced else universe[position + 1 :]:
        if left != right and data_exchange_equivalent(mapping, left, right):
            yield left, right


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
    non-invertibility.

    The return value is a :class:`~repro.engine.budget.SweepVerdict`:
    it unpacks as the historical 2-tuple and additionally carries
    ``coverage`` / ``instances_checked`` when a *budget* (explicit,
    ambient, or environment-configured) cuts the sweep short.

    In ``symmetry="orbits"`` mode only orbit representatives drive the
    outer loop (the inner loop still ranges over the full universe, so
    the verdict matches the full sweep exactly); ``orbits_checked`` on
    the verdict counts them.  *shards* / *shard_id* work as in
    :func:`subset_property`; this sweep keeps no journal.
    """
    universe = list(universe)
    sweep = Sweep(
        phase="check.unique_solutions",
        task=_unique_solutions_task,
        context=(mapping, universe),
        report=SweepOutcome.verdict,
        universe=universe,
        mappings=(mapping,),
    )
    return run_sweep(
        sweep,
        symmetry=symmetry,
        workers=workers,
        budget=budget,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
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


def _mismatch(
    left: Instance, right: Instance, in_id: bool, in_comp: bool
) -> Optional[Tuple[Instance, Instance, str]]:
    if in_id == in_comp:
        return None
    return left, right, "id_only" if in_id else "comp_only"


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
    composition_test: Optional[CompositionTest] = None,
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
    composition_test: Optional[CompositionTest] = None,
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
    :func:`subset_property`; this sweep keeps no journal.
    """
    universe = list(universe)
    witnesses = (
        list(witness_universe)
        if witness_universe is not None
        else _default_witnesses(universe)
    )
    sweep = Sweep(
        phase="check.generalized_inverse",
        task=_generalized_inverse_task,
        context=(
            mapping,
            candidate,
            relation1,
            relation2,
            universe,
            witnesses,
            max_nulls,
            composition_test,
        ),
        report=partial(_pair_report, InverseCheckReport),
        universe=universe,
        mappings=(mapping, candidate),
        invariant=_relations_invariant(relation1, relation2),
    )
    return run_sweep(
        sweep,
        symmetry=symmetry,
        workers=workers,
        budget=budget,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
        stop_at_first=stop_at_first_mismatch,
    )


def _in_comp_closure(
    mapping: SchemaMapping,
    candidate: SchemaMapping,
    relation1: EquivalenceRelation,
    relation2: EquivalenceRelation,
    witnesses: Sequence[Instance],
    left: Instance,
    right: Instance,
    max_nulls: int,
    composition_test: Optional[CompositionTest] = None,
) -> bool:
    """Is (left, right) in Inst(M∘M')[∼1,∼2] over the witness pool?"""
    for left_prime in witnesses:
        if not relation1.related(left, left_prime):
            continue
        for right_prime in witnesses:
            if not relation2.related(right, right_prime):
                continue
            if composition_test is None:
                member = composition_membership(
                    mapping, candidate, left_prime, right_prime,
                    max_nulls=max_nulls,
                )
            else:
                member = composition_test(
                    mapping, candidate, left_prime, right_prime, max_nulls
                )
            if member:
                return True
    return False


def _generalized_inverse_task(
    plan: SweepPlan, position: int, context: Tuple
) -> Iterator[Optional[Tuple[Instance, Instance, str]]]:
    """One entry per right instance: None when the closure memberships
    agree, else the mismatch."""
    (
        mapping,
        candidate,
        relation1,
        relation2,
        universe,
        witnesses,
        max_nulls,
        composition_test,
    ) = context
    left = plan.outer[position]
    for right in universe:
        in_id = _in_id_closure(relation1, relation2, witnesses, left, right)
        in_comp = _in_comp_closure(
            mapping, candidate, relation1, relation2, witnesses,
            left, right, max_nulls, composition_test,
        )
        yield _mismatch(left, right, in_id, in_comp)


def _is_inverse_task(
    plan: SweepPlan, position: int, context: Tuple
) -> Iterator[Optional[Tuple[Instance, Instance, str]]]:
    """One entry per right instance, with exact membership.

    The default test prepares one :class:`MembershipSearch` per left
    (chase, null order, compiled rules) and reuses it for every right.
    It is built at the first right, so a null-budget error surfaces
    exactly where the per-pair call would raise it."""
    mapping, candidate, universe, max_nulls, composition_test = context
    left = plan.outer[position]
    search: Optional[MembershipSearch] = None
    for right in universe:
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
        yield _mismatch(left, right, left.issubset(right), in_comp)


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
    universe = list(universe)
    sweep = Sweep(
        phase="check.is_inverse",
        task=_is_inverse_task,
        context=(mapping, candidate, universe, max_nulls, composition_test),
        report=partial(_pair_report, InverseCheckReport),
        universe=universe,
        mappings=(mapping, candidate),
    )
    return run_sweep(
        sweep,
        symmetry=symmetry,
        workers=workers,
        budget=budget,
        backend=backend,
        shards=shards,
        shard_id=shard_id,
        stop_at_first=stop_at_first_mismatch,
    )

"""One driver for every bounded sweep.

Each bounded verdict of the library walks the outer instances of a
finite universe and examines pairs from each:

* the (∼1,∼2)-subset property;
* unique solutions;
* the (∼1,∼2)-inverse, inverse and quasi-inverse definitions;
* the soundness and faithfulness round trips.

An examined pair either passes or is a violation.  Everything around
that fold is the same for every kind, and lives here once:

* planning: :func:`~repro.engine.symmetry.plan_sweep`, with the
  kind's invariance veto;
* shard resolution and dispatch: unsharded, one fixed ``shard_id``, or
  every shard through :func:`~repro.engine.checkpoint.claim_shards`;
* the optional checkpoint journal (resume index, prior verdict,
  per-item records, completion), keyed and fingerprinted by one helper;
* budget resolution (:func:`~repro.engine.budget.resolve_budget`), the
  ambient budget / ground-key / backend contexts and the phase span;
* dispatch through :class:`~repro.engine.parallel.ParallelUniverseRunner`;
* degrading governed budget trips and worker faults to partial
  coverage;
* stop-at-first;
* the shard merge, in serial pair order.

A check kind is a :class:`Sweep`: a per-item *task* plus a *report*
builder.  The task is a module-level generator function
``task(plan, position, context)``.  For the outer item
``plan.outer[position]`` it yields one entry per examined pair:
``None`` when the pair passes, else the violation to report.  It runs
in a pool worker or inline.  An exception it raises is kept with the
entries yielded before it and re-raised by the parent at its serial
position, so the fold sees exactly what a serial loop would.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.datamodel.instances import Instance
from repro.engine.budget import (
    COVERAGE_EXHAUSTIVE,
    Budget,
    SweepVerdict,
    record_coverage,
    resolve_budget,
    use_budget,
    worst_coverage,
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
    plan_sweep,
    resolve_shards,
    use_ground_keys,
)
from repro.errors import BudgetExceeded, WorkerFault, governed_coverage

Report = TypeVar("Report")

#: ``task(plan, position, context)``: the entries of one outer item.
SweepTask = Callable[[SweepPlan, int, Any], Iterator[Any]]


@dataclass
class SweepOutcome:
    """What a sweep, or one shard of it, found.

    ``found`` holds the violations keyed by ``(outer position, entry
    index)``, which is their serial order.  ``prior_ok`` is the verdict
    of a journal prefix this run resumed from, or of shards finished
    by peer processes.
    """

    prior_ok: bool = True
    checked: int = 0
    found: List[Tuple[Tuple[int, int], Any]] = field(default_factory=list)
    coverage: str = COVERAGE_EXHAUSTIVE
    instances_checked: int = 0
    orbits_checked: int = 0

    @property
    def holds(self) -> bool:
        return self.prior_ok and not self.found

    @property
    def violations(self) -> Tuple[Any, ...]:
        return tuple(violation for _, violation in self.found)

    def coverage_fields(self) -> Dict[str, Any]:
        """The coverage keywords every sweep report takes."""
        return {
            "coverage": self.coverage,
            "instances_checked": self.instances_checked,
            "orbits_checked": self.orbits_checked,
        }

    def verdict(self) -> SweepVerdict:
        """The ``(ok, violators)`` verdict of this outcome."""
        return SweepVerdict(self.holds, self.violations, **self.coverage_fields())


@dataclass(frozen=True)
class Sweep(Generic[Report]):
    """One check kind over one universe (see the module docstring).

    *context* is the task's read-only data; pool workers inherit it
    through the fork instead of receiving it per task.  *mappings* and
    *invariant* decide whether an orbit plan is sound.  *label* names
    the kind's coverage events and journal entries (default: *phase*).
    Only a *journaled* kind keeps a checkpoint journal; its
    fingerprint digests the mappings, the *identity* parts, the
    universe and the extra *pools*.
    """

    phase: str
    task: SweepTask
    context: Any
    report: Callable[[SweepOutcome], Report]
    universe: Sequence[Instance]
    mappings: Sequence[Any] = ()
    invariant: bool = True
    label: str = ""
    journaled: bool = False
    identity: Sequence[Any] = ()
    pools: Sequence[Sequence[Instance]] = ()


def run_sweep(
    sweep: Sweep[Report],
    *,
    symmetry: Optional[str] = None,
    workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    shard_id: Optional[int] = None,
    checkpoint: Optional[CheckpointJournal] = None,
    stop_at_first: bool = False,
) -> Report:
    """Run *sweep* and build its report.

    *symmetry*, *workers*, *backend*, *shards* and *shard_id* default
    to the ``REPRO_*`` settings; *budget* to the ambient one, else the
    environment's; the verdict store to ``REPRO_STORE``.  *checkpoint* (default: the ``REPRO_CHECKPOINT``
    journal) applies to journaled kinds only.  With *shards* > 1 and no
    *shard_id*, this process claims every shard not done elsewhere and
    the merged report equals the unsharded one under
    ``stop_at_first=False``.  With early stopping each shard stops at
    its own first violation, so only the verdict matches.
    """
    default_store()  # honour REPRO_STORE before any cache traffic
    label = sweep.label or sweep.phase
    plan = plan_sweep(
        symmetry,
        sweep.universe,
        mappings=sweep.mappings,
        extra_invariant=sweep.invariant,
    )
    budget = resolve_budget(budget)
    shards, shard_id = resolve_shards(shards, shard_id)
    journal: Optional[CheckpointJournal] = None
    key = fingerprint = ""
    if sweep.journaled:
        journal = checkpoint if checkpoint is not None else default_journal()
    if journal is not None:
        key, fingerprint = _journal_identity(sweep, label, plan)
    runner = ParallelUniverseRunner(workers)

    def fold(positions: Sequence[int], shard: Optional[int]) -> SweepOutcome:
        entry = key if shard is None else shard_entry_key(key, shard, shards)
        return _fold(
            sweep, label, plan, positions, runner, budget, journal,
            entry, fingerprint, stop_at_first,
        )

    with engine_stats().phase(sweep.phase), use_budget(
        budget
    ), use_ground_keys(plan.ground_keys), use_backend(backend):
        if shards <= 1:
            outcome = fold(range(len(plan.outer)), None)
        elif shard_id is not None:
            outcome = fold(plan.shard_positions(shards, shard_id), shard_id)
        else:
            outcomes: Dict[int, SweepOutcome] = {}
            for claimed in claim_shards(
                journal, key, shards, owner=uuid.uuid4().hex,
                fingerprint=fingerprint,
            ):
                outcomes[claimed] = fold(
                    plan.shard_positions(shards, claimed), claimed
                )
            outcome = _merge(
                [outcomes[shard] for shard in sorted(outcomes)],
                _peers_ok(journal, key, shards, outcomes),
            )
    return sweep.report(outcome)


def _run_item(position: int) -> Tuple[List[Any], Optional[BaseException]]:
    """Pool task: the entries of one outer item, and the exception that
    cut them short (returned, not raised, so the parent's fold replays
    the serial control flow exactly)."""
    plan, task, context = get_shared()
    entries: List[Any] = []
    try:
        for entry in task(plan, position, context):
            entries.append(entry)
    except Exception as error:
        return entries, error
    return entries, None


def _fold(
    sweep: Sweep,
    label: str,
    plan: SweepPlan,
    positions: Sequence[int],
    runner: ParallelUniverseRunner,
    budget: Optional[Budget],
    journal: Optional[CheckpointJournal],
    key: str,
    fingerprint: str,
    stop_at_first: bool,
) -> SweepOutcome:
    """One journal-backed pass over *positions* of ``plan.outer``: the
    whole sweep when unsharded, one shard's share otherwise."""
    total = len(positions)
    start = journal.resume_index(key, total, fingerprint) if journal else 0
    prior = (
        journal.prior_verdict(key)
        if journal and start
        else {"ok": True, "violations": 0}
    )
    outcome = SweepOutcome(
        prior_ok=prior["ok"],
        instances_checked=sum(plan.weight_of(p) for p in positions[:start]),
        orbits_checked=start if plan.reduced else 0,
    )
    done = start

    def note(*, finished: bool = False, flush: bool = False) -> None:
        if journal is None:
            return
        verdict = dict(
            total=total,
            ok=outcome.holds,
            violations=prior["violations"] + len(outcome.found),
            fingerprint=fingerprint,
        )
        if finished:
            journal.complete(key, **verdict)
        else:
            journal.record(key, verified_upto=done, flush=flush, **verdict)

    todo = positions[start:]
    results = runner.map_iter(
        _run_item, todo, shared=(plan, sweep.task, sweep.context), budget=budget
    )
    try:
        for position, (entries, error) in zip(todo, results):
            for index, entry in enumerate(entries):
                outcome.checked += 1
                if entry is not None:
                    outcome.found.append(((position, index), entry))
                    if stop_at_first:
                        break
            if stop_at_first and outcome.found:
                break
            if error is not None:
                raise error
            outcome.instances_checked += plan.weight_of(position)
            outcome.orbits_checked += 1 if plan.reduced else 0
            done += 1
            note()
    except (BudgetExceeded, WorkerFault) as error:
        coverage = governed_coverage(error)
        if coverage is None:
            raise
        outcome.coverage = coverage
        note(flush=True)
        record_coverage(label, coverage, str(error), outcome.instances_checked)
        return outcome
    finally:
        results.close()
    note(finished=True)
    return outcome


def _merge(outcomes: Sequence[SweepOutcome], peers_ok: bool) -> SweepOutcome:
    """Fold shard outcomes (in shard-id order) back into the unsharded
    one: violations re-sorted into serial order, counters summed."""
    return SweepOutcome(
        prior_ok=peers_ok and all(outcome.prior_ok for outcome in outcomes),
        checked=sum(outcome.checked for outcome in outcomes),
        found=sorted(
            (entry for outcome in outcomes for entry in outcome.found),
            key=lambda entry: entry[0],
        ),
        coverage=worst_coverage(*(outcome.coverage for outcome in outcomes)),
        instances_checked=sum(outcome.instances_checked for outcome in outcomes),
        orbits_checked=sum(outcome.orbits_checked for outcome in outcomes),
    )


def _peers_ok(
    journal: Optional[CheckpointJournal],
    key: str,
    shards: int,
    ran: Dict[int, SweepOutcome],
) -> bool:
    """The journal verdict of the shards peer processes completed.

    Their violations count against the merged verdict; their pair
    counters stay with the peer, as for a resumed journal prefix."""
    if journal is None:
        return True
    journal.reload()
    for shard in range(shards):
        if shard in ran:
            continue
        prior = journal.prior_verdict(shard_entry_key(key, shard, shards))
        if not prior["ok"] or prior["violations"]:
            return False
    return True


def _journal_identity(
    sweep: Sweep, label: str, plan: SweepPlan
) -> Tuple[str, str]:
    """The journal key of a sweep and the fingerprint guarding it.

    The key names the sweep; the fingerprint digests its content —
    dependencies, identity parts, every pooled instance and the
    effective mode — so an entry written for a different sweep is
    never honoured, even when the key and lengths agree."""
    pools = (sweep.universe, *sweep.pools)
    key = sweep_key(
        label,
        plan.mode,
        *(mapping.name or mapping for mapping in sweep.mappings),
        *sweep.identity,
        *(len(pool) for pool in pools),
    )
    fingerprint = stable_digest(
        [
            label,
            plan.mode,
            *(mapping_key(mapping) for mapping in sweep.mappings),
            *sweep.identity,
            *([instance.sorted_facts() for instance in pool] for pool in pools),
        ]
    )[:16]
    return key, fingerprint


__all__ = ["Sweep", "SweepOutcome", "SweepTask", "run_sweep"]

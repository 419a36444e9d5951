"""The reproduction workload: ``repro run`` of all fourteen experiments,
as two fresh CLI processes per pass.

A pass runs the inverse sweeps of E9 and E13 in one process and the
other twelve experiments in a second one.  The first process sweeps
shard 1 of 4 of the E9/E13 inverse checks (``--shards 4 --shard-id
1``): the whole of E9+E13 takes 90-110 s on a 2-core machine, longer
than one benchmark run may take.  The shard is exhaustive within
itself, so its checks pass.  It holds cheap and membership-heavy left
instances (594 membership calls, 43,430 candidates; the heaviest left
instances lie in shard 2), and membership dominates it as it
dominates E9+E13.  The shard options would split every sweep of the
process, so the other experiments run unsharded in a process of
their own.

The paper's inputs are fixed, so the seed does not change what runs.
A run repeats passes for about ``--seconds`` and reports medians over
the passes.  Every check of every experiment is one operation; it
fails when the check does not pass.  A process that exits non-zero
while no check failed, reports the wrong experiments or reports
partial coverage adds one failed operation.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from perfbench import proc
from perfbench.layers import EXPERIMENT_IDS, layer_metrics
from perfbench.report import Outcome
from perfbench.stats import percentile

WORKLOAD = "paper"

INVERSE_IDS = ("E9", "E13")

#: The processes of one pass: (experiment ids, extra CLI options).
PASS: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]], ...] = (
    (INVERSE_IDS, ("--shards", "4", "--shard-id", "1")),
    (tuple(e for e in EXPERIMENT_IDS if e not in INVERSE_IDS), ()),
)

PROCESS_TIMEOUT_S = 170.0


@dataclass
class Repetition:
    """One ``repro run`` process."""

    process: proc.Finished
    wall_s: float  # the experiments' own seconds, summed
    trace: Optional[dict]

    @property
    def setup_s(self) -> float:
        return self.process.wall_s - self.wall_s


@dataclass
class Pass:
    """One pass: every process of :data:`PASS`, in order."""

    processes: List[Repetition]

    @property
    def wall_s(self) -> float:
        return sum(rep.wall_s for rep in self.processes)

    @property
    def latency_s(self) -> float:
        return sum(rep.process.wall_s for rep in self.processes)

    @property
    def peak_rss_mb(self) -> float:
        return max(rep.process.peak_rss_mb for rep in self.processes)


def run_once(ids: Sequence[str], extra: Sequence[str], workdir: str, serial: int,
             traced: bool, outcome: Outcome) -> Repetition:
    stem = os.path.join(workdir, f"rep{serial}")
    trace_path = stem + ".trace.json" if traced else None
    argv = proc.program_argv("repro.cli", ["run", *ids, "--json", *extra], trace_path)
    finished = proc.run(
        argv, proc.child_env(workdir), stem + ".out", stem + ".err", PROCESS_TIMEOUT_S
    )
    try:
        with open(stem + ".out", "r", encoding="utf-8") as handle:
            payloads = json.load(handle)
    except ValueError:
        payloads = []
    reports = [payload for payload in payloads if "id" in payload]
    failed_checks = 0
    for report in reports:
        for check in report["checks"]:
            outcome.operation(check["passed"], f"{report['id']}: {check['name']}")
            failed_checks += not check["passed"]
    if [report["id"] for report in reports] != list(ids):
        outcome.operation(False, f"expected reports for {list(ids)}, got "
                                 f"{[report['id'] for report in reports]}")
    if any("coverage_events" in payload for payload in payloads):
        outcome.operation(False, "a sweep reported partial coverage")
    if finished.returncode != 0 and not failed_checks:
        outcome.operation(False, f"exit code {finished.returncode}")
    trace = None
    if trace_path is not None:
        try:
            with open(trace_path, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
        except (OSError, ValueError):
            outcome.operation(False, "the traced launcher wrote no trace")
    return Repetition(finished, sum(report.get("seconds", 0.0) for report in reports), trace)


def run_pass(workdir: str, serial: int, traced: bool, outcome: Outcome) -> Pass:
    return Pass([
        run_once(ids, extra, workdir, serial * len(PASS) + index, traced, outcome)
        for index, (ids, extra) in enumerate(PASS)
    ])


def run(seconds: float, traced: bool, workdir: str) -> Outcome:
    """Repeat passes for about *seconds*: a pass starts only while at
    least half a pass's median length is left, so runs overshoot by
    little and measure about the same time at any machine speed.

    Untraced, every pass is timed.  Traced, each round runs one
    untraced and one traced pass, so the trace overhead is measured
    on the same machine state."""
    outcome = Outcome()
    plain: List[Pass] = []
    with_trace: List[Pass] = []
    rounds: List[float] = []
    started = time.perf_counter()
    serial = 0
    while True:
        round_started = time.perf_counter()
        plain.append(run_pass(workdir, serial, False, outcome))
        serial += 1
        if traced:
            with_trace.append(run_pass(workdir, serial, True, outcome))
            serial += 1
        now = time.perf_counter()
        rounds.append(now - round_started)
        if now - started + statistics.median(rounds) / 2 > seconds:
            break
    if traced:
        outcome.metrics.update(_traced_metrics(plain, with_trace))
    else:
        latencies = [one.latency_s for one in plain]
        outcome.metrics.update(
            setup_s=statistics.median(
                [rep.setup_s for one in plain for rep in one.processes]
            ),
            wall_s=statistics.median([one.wall_s for one in plain]),
            peak_rss_mb=statistics.median([one.peak_rss_mb for one in plain]),
            job_latency_p50_s=percentile(latencies, 50),
            job_latency_p90_s=percentile(latencies, 90),
            jobs_per_s=len(latencies) / sum(latencies),
            samples=len(latencies),
        )
    return outcome


def merge_traces(traces: List[dict]) -> dict:
    """The traces of one pass's processes as one: aggregates side by
    side, counters summed."""
    counters: Counter = Counter()
    for trace in traces:
        counters.update(trace["counters"])
    return {
        "aggregates": [entry for trace in traces for entry in trace["aggregates"]],
        "counters": dict(counters),
    }


def _traced_metrics(plain: List[Pass], with_trace: List[Pass]) -> dict:
    per_pass = [
        layer_metrics(merge_traces([rep.trace for rep in one.processes]))
        for one in with_trace
        if all(rep.trace is not None for rep in one.processes)
    ]
    if not per_pass:
        return {}
    metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    # Measured by the service client only; no orbit sweep runs here.
    metrics.update(
        {
            "symmetry.orbit_ratio": 0.0,
            "service.queue_wait_s": 0.0,
            "service.overhead_s": 0.0,
            "service.dedup_hits": 0,
            "service.jobs": 0,
            "trace.overhead_ratio": statistics.median([one.wall_s for one in with_trace])
            / statistics.median([one.wall_s for one in plain]),
        }
    )
    return metrics

"""The service workload: a checking daemon in a closed loop with two
clients.

Set-up primes a verdict store by answering the known job pool once
through a daemon (the way CI runs with a cached store).  The measured
daemon then starts on a copy of that store, and two client threads
each submit one job and wait for its result before sending the next.
Every other job of the seeded stream repeats a known-pool job (these
read the store and the memo caches); the rest are fresh inline LAV
mappings made here from the seed, whose subset and invertibility jobs
chase and write the store.

The daemon runs one job at a time (``--max-jobs 1``; its default is
2).  With two job threads the verdict store's SQLite connection, which
only the thread that opened it may use, fails on the other thread:
a 20 s run counted about 17,000 store read errors, 4,000 write
errors and 6 job retries, single store flushes took up to 1.7 s, and
``jobs_per_s`` varied by about ±20% from run to run with thread
scheduling.  The ``store.errors`` and ``service.job_retries`` layer
metrics keep that defect visible.

A job fails on an HTTP or protocol error, on a state other than done
or violated, on a verdict that contradicts :mod:`perfbench.verdicts`
(fresh subset jobs must hold, by Prop 3.11), or when a repeated spec
renders differently from its first answer in the run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench import proc
from perfbench.layers import layer_metrics
from perfbench.report import Outcome
from perfbench.stats import percentile
from perfbench.verdicts import DONE, VIOLATED, known_pool

WORKLOAD = "service-mixed"
CLIENTS = 2
JOB_SLOTS = 1  # see the module docstring
SETUP_SPAWNS = 9
MIN_JOBS = 100  # so that at least ten samples lie beyond p90
#: The daemon's memory grows with every job it answers (about 0.09 MB
#: a job), so its peak over a whole timed run would track throughput;
#: ``peak_rss_mb`` is read once this many jobs are answered instead.
RSS_AT_JOBS = 250
JOB_WAIT_S = 60.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: The HTTP status the protocol gives each terminal state.
STATE_HTTP = {"done": 200, "violated": 422, "partial": 206, "faulted": 424, "cancelled": 410}

_COVERAGE = re.compile(r"instances_checked=(\d+), orbits_checked=(\d+)")

Endpoint = Tuple[str, int]


def request(endpoint: Endpoint, method: str, path: str, body: Optional[dict] = None,
            timeout: float = JOB_WAIT_S + 10) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection(*endpoint, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


# -- the job stream --------------------------------------------------------

SOURCE_RELATIONS = ("P", "T")
TARGET_RELATIONS = ("Q", "R", "S")


def random_lav_mapping(rng: random.Random) -> dict:
    """A random LAV mapping (one source atom per premise) as an inline
    ``{source, target, dependencies}`` spec."""
    source = {name: rng.randint(1, 2) for name in rng.sample(SOURCE_RELATIONS, rng.randint(1, 2))}
    target = {name: rng.randint(1, 3) for name in rng.sample(TARGET_RELATIONS, rng.randint(1, 3))}
    lines = set()
    for _ in range(rng.randint(1, 3)):
        relation = rng.choice(sorted(source))
        terms: List[str] = []
        for position in range(source[relation]):
            repeat = terms and rng.random() < 0.3
            terms.append(rng.choice(terms) if repeat else f"x{position + 1}")
        variables = sorted(set(terms))
        atoms = []
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(sorted(target))
            arguments = [
                rng.choice(variables) if rng.random() < 0.7 else rng.choice(("z1", "z2"))
                for _ in range(target[name])
            ]
            atoms.append(f"{name}({', '.join(arguments)})")
        lines.add(f"{relation}({', '.join(terms)}) -> {' & '.join(atoms)}")
    return {"source": source, "target": target, "dependencies": "\n".join(sorted(lines))}


#: Fresh jobs draw their structure from this many LAV mappings, made
#: by :func:`random_lav_mapping` from a fixed seed.  Drawing a new
#: random structure per job made a run's cost depend on the seed by
#: ±20%, beyond any bound a benchmark can hold; with fixed structures
#: the seed chooses their order and their relation names.
TEMPLATE_COUNT = 32
TEMPLATE_SEED = 0


def lav_templates() -> List[dict]:
    """The fresh-job structures: distinct random LAV mappings."""
    rng = random.Random(TEMPLATE_SEED)
    templates: Dict[str, dict] = {}
    while len(templates) < TEMPLATE_COUNT:
        mapping = random_lav_mapping(rng)
        templates.setdefault(json.dumps(mapping, sort_keys=True), mapping)
    return list(templates.values())


def fresh_job(template: dict, tag: str, kind: str, serial: int) -> dict:
    """A *kind* job on *template* with every relation renamed by the
    suffix *tag*: a mapping no cache or store has seen, with the same
    structure and the same relative order of relation names.  Sweeps
    stay small: at most 11 universe instances over domain {a, b}."""
    rename = {name: f"{name}{tag}" for name in (*template["source"], *template["target"])}
    pattern = re.compile(r"\b(" + "|".join(rename) + r")\(")
    facts = sum(2 ** arity for arity in template["source"].values())
    return {
        "kind": kind,
        "mapping": {
            "source": {rename[name]: arity for name, arity in template["source"].items()},
            "target": {rename[name]: arity for name, arity in template["target"].items()},
            "dependencies": pattern.sub(lambda match: rename[match.group(1)] + "(",
                                        template["dependencies"]),
            "name": f"Fresh{serial}",
        },
        "max_facts": 2 if facts <= 4 else 1,
    }


class JobStream:
    """The seeded job stream, shared by the client threads.

    Odd positions walk the known pool, even positions the fresh-job
    templates crossed with the subset and invertibility kinds, each in
    a seeded order reshuffled at every pass.  Walking passes rather
    than drawing at random keeps a run's job mix fixed: the first
    answer of a known job (memo caches cold, store warm) costs far
    more than a repeat.  Every fresh job gets relation names of its
    own, so no two are alike in content."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._known = known_pool()
        self._fresh = [
            (template, kind) for template in lav_templates()
            for kind in ("subset", "invertibility")
        ]
        self._known_pass: List[Tuple[dict, Optional[str]]] = []
        self._fresh_pass: List[Tuple[dict, str]] = []
        self._position = 0
        self._tags: set = set()
        self._lock = threading.Lock()

    def _draw(self, items: list, current: list):
        if not current:
            current.extend(items)
            self._rng.shuffle(current)
        return current.pop()

    def next(self) -> Tuple[dict, Optional[str]]:
        """The next (payload, expected state or None)."""
        with self._lock:
            self._position += 1
            if self._position % 2:
                payload, expected = self._draw(self._known, self._known_pass)
                return dict(payload), expected
            template, kind = self._draw(self._fresh, self._fresh_pass)
            tag = f"{self._rng.randrange(10 ** 6):06d}"
            while tag in self._tags:
                tag = f"{self._rng.randrange(10 ** 6):06d}"
            self._tags.add(tag)
            payload = fresh_job(template, tag, kind, self._position)
            # Subset jobs hold on every LAV mapping (Prop 3.11).
            return payload, DONE if kind == "subset" else None


# -- one job ---------------------------------------------------------------


@dataclass
class JobResult:
    payload: dict
    expected: Optional[str]
    latency_s: float
    finished_at: float
    state: str = ""
    rendering: str = ""
    server_s: float = 0.0
    queue_wait_s: float = 0.0
    error: str = ""


def submit_and_wait(endpoint: Endpoint, payload: dict, expected: Optional[str]) -> JobResult:
    started = time.perf_counter()
    state, rendering, server_s, queue_wait, error = "", "", 0.0, 0.0, ""
    try:
        status, job = request(endpoint, "POST", "/jobs", payload)
        if status != 202:
            raise ValueError(f"submit answered HTTP {status}: {job}")
        path = f"/jobs/{job['id']}/result?wait={JOB_WAIT_S}"
        while True:
            status, job = request(endpoint, "GET", path)
            state = job["state"]
            if state in STATE_HTTP:
                break
            if time.perf_counter() - started > 2 * JOB_WAIT_S:
                raise TimeoutError(f"job still {state}")
        if status != STATE_HTTP[state]:
            raise ValueError(f"state {state} answered HTTP {status}")
        rendering = job["outcome"]["rendering"]
        server_s = float(job["outcome"]["seconds"])
        queue_wait = float(job["started_at"]) - float(job["submitted_at"])
    except (OSError, ValueError, KeyError, TypeError, http.client.HTTPException) as failure:
        error = f"{type(failure).__name__}: {failure}"
    finished = time.perf_counter()
    return JobResult(payload, expected, finished - started, finished, state, rendering,
                     server_s, queue_wait, error)


def judge(result: JobResult, first_renderings: Dict[str, str]) -> str:
    """Empty when the result checks out, else what is wrong with it."""
    label = json.dumps(result.payload, sort_keys=True)[:160]
    if result.error:
        return f"{label}: {result.error}"
    if result.state not in (DONE, VIOLATED):
        return f"{label}: ended {result.state}"
    if result.expected is not None and result.state != result.expected:
        return f"{label}: {result.state}, expected {result.expected}"
    first = first_renderings.setdefault(json.dumps(result.payload, sort_keys=True),
                                        result.rendering)
    if first != result.rendering:
        return f"{label}: rendering differs from the first answer"
    return ""


# -- the daemon ------------------------------------------------------------


class Daemon:
    """One ``python -m repro.service serve`` process on its own state
    directory and the given store file; ``setup_s`` is the time from
    spawning it to its first successful ``/healthz``."""

    def __init__(self, workdir: str, label: str, store: str,
                 trace_path: Optional[str] = None) -> None:
        state = os.path.join(workdir, f"state-{label}")
        argv = proc.program_argv(
            "repro.service",
            ["serve", "--port", "0", "--state-dir", state, "--store", store,
             "--max-jobs", str(JOB_SLOTS)],
            trace_path,
        )
        self.log = open(os.path.join(workdir, f"daemon-{label}.log"), "wb")
        self.started = time.perf_counter()
        self.process = proc.spawn(argv, proc.child_env(workdir), self.log, subprocess.STDOUT)
        try:
            self.endpoint = self._wait_ready(os.path.join(state, "service.json"))
        except BaseException:
            self.process.kill()
            proc.reap(self.process, self.started, STOP_TIMEOUT_S)
            self.log.close()
            raise
        self.setup_s = time.perf_counter() - self.started

    def _wait_ready(self, endpoint_file: str) -> Endpoint:
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                with open(endpoint_file, "r", encoding="utf-8") as handle:
                    endpoint = json.load(handle)
                if endpoint.get("pid") == self.process.pid:
                    address = (endpoint["host"], int(endpoint["port"]))
                    status, health = request(address, "GET", "/healthz", timeout=5)
                    if status == 200 and health.get("ok"):
                        return address
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.002)
        raise RuntimeError(f"daemon not healthy after {READY_TIMEOUT_S}s")

    def stop(self) -> proc.Finished:
        try:
            request(self.endpoint, "POST", "/shutdown", timeout=10)
        except (OSError, http.client.HTTPException):
            self.process.terminate()
        try:
            return proc.reap(self.process, self.started, STOP_TIMEOUT_S)
        finally:
            self.log.close()


# -- the workload ----------------------------------------------------------


def prime(workdir: str, outcome: Outcome, first_renderings: Dict[str, str]) -> str:
    """Answer the known pool once into a fresh store; returns its path."""
    store = os.path.join(workdir, "primed.sqlite")
    daemon = Daemon(workdir, "prime", store)
    try:
        results = [
            submit_and_wait(daemon.endpoint, payload, expected)
            for payload, expected in known_pool()
        ]
    finally:
        daemon.stop()
    _judge_all(results, outcome, first_renderings)
    return store


def _judge_all(results: List[JobResult], outcome: Outcome,
               first_renderings: Dict[str, str]) -> None:
    for result in results:
        problem = judge(result, first_renderings)
        outcome.operation(not problem, problem)


def _daemon_on_copy(workdir: str, label: str, primed: str,
                    trace_path: Optional[str] = None) -> Daemon:
    store = os.path.join(workdir, f"store-{label}.sqlite")
    shutil.copyfile(primed, store)
    return Daemon(workdir, label, store, trace_path)


def peak_rss_mb(pid: int) -> float:
    """The peak resident set size of a live process so far."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def closed_loop(endpoint: Endpoint, stream: JobStream, seconds: float, pid: int
                ) -> Tuple[List[JobResult], float, float]:
    """Run the clients until *seconds* have passed and at least
    :data:`MIN_JOBS` jobs are done.  Returns the results in completion
    order, the time from the first submit to the last result, and the
    daemon's peak RSS once :data:`RSS_AT_JOBS` jobs were answered (or
    at the end, if fewer were)."""
    results: List[JobResult] = []
    lock = threading.Lock()
    claimed = 0
    rss: List[float] = []
    started = time.perf_counter()

    def client() -> None:
        nonlocal claimed
        while True:
            with lock:
                if time.perf_counter() - started >= seconds and claimed >= MIN_JOBS:
                    return
                claimed += 1
            payload, expected = stream.next()
            result = submit_and_wait(endpoint, payload, expected)
            with lock:
                results.append(result)
                if len(results) == RSS_AT_JOBS:
                    rss.append(peak_rss_mb(pid))

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 4 * JOB_WAIT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    results.sort(key=lambda result: result.finished_at)
    wall = max(result.finished_at for result in results) - started
    return results, wall, rss[0] if rss else peak_rss_mb(pid)


def _measured_stream(workdir: str, label: str, primed: str, seed: int, seconds: float,
                     trace_path: Optional[str] = None):
    """Start a daemon on a copy of the primed store, run the closed
    loop on it, read ``/stats`` and stop it."""
    daemon = _daemon_on_copy(workdir, label, primed, trace_path)
    try:
        results, wall, rss = closed_loop(
            daemon.endpoint, JobStream(seed), seconds, daemon.process.pid
        )
        _status, stats = request(daemon.endpoint, "GET", "/stats")
    finally:
        daemon.stop()
    return daemon.setup_s, results, wall, stats, rss


def _idle_setup(workdir: str, label: str, primed: str) -> float:
    daemon = _daemon_on_copy(workdir, label, primed)
    daemon.stop()
    return daemon.setup_s


def run(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    outcome = Outcome()
    first_renderings: Dict[str, str] = {}
    primed = prime(workdir, outcome, first_renderings)
    if not traced:
        setups = [_idle_setup(workdir, f"idle{n}", primed) for n in range(SETUP_SPAWNS - 1)]
        setup_s, results, wall, _stats, rss = _measured_stream(
            workdir, "measured", primed, seed, seconds
        )
        _judge_all(results, outcome, first_renderings)
        latencies = [result.latency_s for result in results]
        outcome.metrics.update(
            setup_s=statistics.median(setups + [setup_s]),
            wall_s=wall,
            peak_rss_mb=rss,
            job_latency_p50_s=percentile(latencies, 50),
            job_latency_p90_s=percentile(latencies, 90),
            jobs_per_s=len(results) / wall,
            samples=len(results),
        )
        return outcome
    # Half the time untraced, then half traced, on equal daemons.
    _setup, plain, plain_wall, _stats, _rss = _measured_stream(
        workdir, "plain", primed, seed, seconds / 2
    )
    _judge_all(plain, outcome, first_renderings)
    trace_path = os.path.join(workdir, "daemon.trace.json")
    _setup, results, wall, stats, _rss = _measured_stream(
        workdir, "traced", primed, seed, seconds / 2, trace_path
    )
    _judge_all(results, outcome, first_renderings)
    with open(trace_path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    outcome.metrics.update(layer_metrics(trace))
    orbits = [tuple(map(int, match.groups())) for result in results
              for match in _COVERAGE.finditer(result.rendering)]
    orbit_sweeps = [(instances, count) for instances, count in orbits if count]
    outcome.metrics.update(
        {
            "symmetry.orbit_ratio": sum(count for _i, count in orbit_sweeps)
            / max(1, sum(instances for instances, _c in orbit_sweeps)),
            "service.queue_wait_s": statistics.median([result.queue_wait_s for result in results]),
            "service.overhead_s": statistics.median(
                [result.latency_s - result.server_s for result in results]
            ),
            "service.dedup_hits": stats["dedup_hits"],
            "service.jobs": len(results),
            # Wall time per job, traced over untraced.
            "trace.overhead_ratio": (wall / len(results)) / (plain_wall / len(plain)),
        }
    )
    return outcome

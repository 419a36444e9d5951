"""Tests of the benchmark itself: stream determinism, percentiles,
self time, the expected-verdict table and the traced launcher.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import contextvars
import json
import subprocess
import threading

import pytest

from perfbench import proc
from perfbench.service import JobStream, fresh_job, lav_templates
from perfbench.spans import Tracer, by_name
from perfbench.stats import covered_length, percentile
from perfbench.verdicts import CATALOG_VERDICTS, DONE, VIOLATED, known_pool


def _stream(seed: int, count: int = 60) -> list:
    stream = JobStream(seed)
    return [json.dumps(stream.next(), sort_keys=True) for _ in range(count)]


def test_same_seed_same_stream_other_seed_other_stream():
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)


def test_stream_walks_known_pool_and_templates_in_passes():
    stream = JobStream(3)
    pool = known_pool()
    jobs = [stream.next() for _ in range(2 * len(pool))]
    known = [payload for payload, _ in jobs[0::2]]
    fresh = [payload for payload, _ in jobs[1::2]]
    # One pass over the shuffled pool answers every known job once.
    assert sorted(json.dumps(p, sort_keys=True) for p in known) == sorted(
        json.dumps(p, sort_keys=True) for p, _ in pool
    )
    # ... and one pass over the templates runs each with both kinds.
    passes = 2 * len(lav_templates())
    assert sorted(p["kind"] for p in fresh[:passes]) == sorted(
        ["subset", "invertibility"] * (passes // 2)
    )
    # Every fresh job has relation names of its own.
    names = [name for p in fresh for name in p["mapping"]["source"]]
    assert len(names) == len(set(names))
    assert [expected for p, expected in jobs[1::2] if p["kind"] == "subset"] == [
        DONE
    ] * sum(p["kind"] == "subset" for p in fresh)


def test_fresh_jobs_are_lav_and_keep_their_template_structure():
    from repro.service.protocol import normalize_job, resolve_mapping

    templates = lav_templates()
    assert len({json.dumps(t, sort_keys=True) for t in templates}) == len(templates)
    for serial, template in enumerate(templates):
        job = fresh_job(template, "0042", "subset", serial)
        mapping = resolve_mapping(normalize_job(job)["mapping"])
        assert mapping.is_lav()
        assert len(mapping.dependencies) == template["dependencies"].count("->")
        assert all(name.endswith("0042") for name in job["mapping"]["source"])


def test_percentile_matches_hand_computed_nearest_rank():
    samples = [35, 20, 15, 50, 40]  # sorted: 15 20 35 40 50
    assert percentile(samples, 5) == 15
    assert percentile(samples, 30) == 20  # rank ceil(1.5) = 2
    assert percentile(samples, 40) == 20  # rank 2
    assert percentile(samples, 50) == 35  # rank ceil(2.5) = 3
    assert percentile(samples, 90) == 50  # rank ceil(4.5) = 5
    assert percentile(samples, 100) == 50
    with pytest.raises(ValueError):
        percentile([], 50)


def test_covered_length_is_a_clipped_union():
    assert covered_length([(1, 5), (3, 8)], 0, 10) == 7
    assert covered_length([(1, 5), (3, 8)], 2, 6) == 4
    assert covered_length([(1, 2), (4, 5)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_with_overlapping_children_on_two_threads():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 3.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def child_a():
        span, token = tracer.open("a")          # 1
        inner, inner_token = tracer.open("g")   # 2
        tracer.close(inner, inner_token)        # 3
        tracer.close(span, token)               # 5

    def child_b():
        span, token = tracer.open("b")          # 3
        tracer.close(span, token)               # 8

    parent, parent_token = tracer.open("p", job="job-1")  # 0
    for body in (child_a, child_b):
        context = contextvars.copy_context()
        thread = threading.Thread(target=context.run, args=(body,))
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
    tracer.close(parent, parent_token)          # 10

    folded = by_name(tracer.aggregates())
    # Children cover [1, 5] and [3, 8]: their union is 7 s, not 4 + 5.
    assert folded["p"]["self_s"] == pytest.approx(3.0)
    assert folded["a"]["self_s"] == pytest.approx(3.0)
    assert folded["g"]["self_s"] == pytest.approx(1.0)
    assert folded["b"]["self_s"] == pytest.approx(5.0)
    keys = {(entry["name"], entry["parent"], entry["job"]) for entry in tracer.aggregates()}
    assert keys == {
        ("p", None, "job-1"), ("a", "p", "job-1"), ("g", "a", "job-1"), ("b", "p", "job-1"),
    }


def test_wrap_counts_calls_and_truthy_results():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda value: value, count_truthy=True)
    for value in (True, False, True):
        wrapped(value)
    assert by_name(tracer.aggregates())["f"]["calls"] == 3
    assert by_name(tracer.aggregates())["f"]["truthy"] == 2
    with pytest.raises(TypeError):
        tracer.wrap("gen", lambda: (yield))


def test_expected_table_covers_every_known_pool_spec():
    from repro.catalog import all_catalog_mappings
    from repro.service.protocol import job_key, normalize_job

    assert set(CATALOG_VERDICTS) == {m.name for m in all_catalog_mappings()}
    pool = known_pool()
    keys = set()
    for payload, expected in pool:
        assert expected in (DONE, VIOLATED, None)
        keys.add(job_key(normalize_job(payload)))
        if payload["kind"] in ("subset", "unique"):
            table = CATALOG_VERDICTS[payload["mapping"]][payload["kind"]]
            if "domain" not in payload:
                assert expected == table[payload["max_facts"] - 1]
    assert len(keys) == len(pool)
    unsettled = [payload for payload, expected in pool if expected is None]
    assert unsettled == [
        {"kind": "subset", "mapping": "Prop3.12", "max_facts": 1},
        {"kind": "subset", "mapping": "Prop3.12", "max_facts": 2},
    ]


def test_launcher_intercepts_from_imports(tmp_path):
    trace_path = str(tmp_path / "trace.json")
    result = subprocess.run(
        proc.program_argv("repro.cli", ["run", "E4", "--json"], trace_path),
        cwd=proc.ROOT, env=proc.child_env(str(tmp_path)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(open(trace_path, encoding="utf-8").read())
    # framework.py binds composition_membership with a from-import.
    assert trace["rebound"]["composition.membership"] >= 2
    assert trace["rebound"]["service.execute_job"] >= 2  # queue.py too
    folded = by_name(trace["aggregates"])
    assert folded["experiments.E4"]["calls"] == 1

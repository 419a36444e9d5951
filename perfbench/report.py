"""A workload's outcome and the result line the benchmark prints last.

Metric names and units come from ``BENCHMARK.json`` at the checkout
root, so the file and the printed result cannot drift apart: a
workload that fails to produce one of the listed metrics is an error.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

from perfbench.proc import ROOT

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


@dataclass
class Outcome:
    """Operations attempted and failed, metrics, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def operation(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(outcome: Outcome, traced: bool) -> str:
    """The JSON object with every ``end_to_end`` metric (untraced) or
    every ``per_layer`` metric (traced), each with its unit."""
    wanted = load_spec()["per_layer" if traced else "end_to_end"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in outcome.metrics]
    if missing:
        raise KeyError(f"workload produced no value for: {', '.join(missing)}")
    return json.dumps(
        {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                metric["name"]: {
                    "value": outcome.metrics[metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in wanted
            },
        }
    )

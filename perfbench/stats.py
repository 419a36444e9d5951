"""The nearest-rank percentile of latencies, and the union length
that self time is computed from."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *pct* percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1]


def covered_length(
    intervals: Iterable[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of the union of *intervals* clipped to [start, end].

    Child spans of one thread never overlap each other, but children
    run on other threads can, so the union (not the sum) is what a
    parent's self time must subtract."""
    clipped: List[Tuple[float, float]] = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        elif hi > run_hi:
            run_hi = hi
    if run_hi is not None:
        total += run_hi - run_lo
    return total

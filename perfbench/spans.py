"""In-memory span tracer used by the traced launcher.

Each wrapped call opens a span whose parent is the span current in
its context.  The current span lives in a ``contextvars`` variable, so
work handed to ``asyncio.to_thread`` (which copies the caller's
context) nests under the span that was open where it was submitted,
and every span inherits its parent's job tag.

Spans are not kept one by one: ``mapping.is_solution`` alone runs
tens of thousands of times per workload.  When a span closes it is
folded into a per-thread aggregate keyed by (name, parent name, job)
holding calls, total time, self time and truthy results.  Self time
is the span's duration minus the union of the intervals its child
spans cover (see :func:`perfbench.stats.covered_length`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.stats import covered_length

AggregateKey = Tuple[str, Optional[str], Optional[str]]


class _Span:
    __slots__ = ("name", "parent", "job", "start", "children")

    def __init__(self, name: str, parent: Optional["_Span"], job: Optional[str]) -> None:
        self.name = name
        self.parent = parent
        self.job = job
        self.start = 0.0
        # (start, end) of each closed child; list.append is atomic, so
        # children closing on other threads may append concurrently.
        self.children: List[Tuple[float, float]] = []


class Tracer:
    """Wraps functions so that each call records a span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._local = threading.local()
        self._tables: List[Dict[AggregateKey, List[float]]] = []
        self._tables_lock = threading.Lock()

    def _table(self) -> Dict[AggregateKey, List[float]]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            with self._tables_lock:
                self._tables.append(table)
        return table

    def open(self, name: str, job: Optional[str] = None) -> Tuple[_Span, Any]:
        parent = self._current.get()
        span = _Span(name, parent, job if job is not None else (parent.job if parent else None))
        token = self._current.set(span)
        span.start = self.clock()
        return span, token

    def close(self, span: _Span, token: Any, truthy: bool = False) -> None:
        end = self.clock()
        self._current.reset(token)
        duration = end - span.start
        self_time = duration - covered_length(span.children, span.start, end)
        parent = span.parent
        if parent is not None:
            parent.children.append((span.start, end))
        key = (span.name, parent.name if parent is not None else None, span.job)
        table = self._table()
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time
        if truthy:
            entry[3] += 1

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        name_of: Optional[Callable[..., str]] = None,
        job_of: Optional[Callable[..., str]] = None,
        count_truthy: bool = False,
    ) -> Callable:
        """A wrapper recording one span per call of *function*.

        *name_of* / *job_of* derive the span name / job tag from the
        call's arguments; *count_truthy* counts calls that returned a
        truthy value (for accept ratios)."""
        if inspect.isgeneratorfunction(function):
            raise TypeError(f"{name}: a generator's span would end before its work")
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = tracer.open(
                name_of(*args, **kwargs) if name_of else name,
                job_of(*args, **kwargs) if job_of else None,
            )
            result = None
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span, token, truthy=count_truthy and bool(result))
            return result

        return traced

    def aggregates(self) -> List[Dict[str, Any]]:
        """Every (name, parent, job) aggregate, merged over threads."""
        merged: Dict[AggregateKey, List[float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, self_time, truthy) in list(table.items()):
                entry = merged.setdefault(key, [0, 0.0, 0.0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
                entry[3] += truthy
        return [
            {
                "name": name,
                "parent": parent,
                "job": job,
                "calls": calls,
                "total_s": total,
                "self_s": self_time,
                "truthy": truthy,
            }
            for (name, parent, job), (calls, total, self_time, truthy) in sorted(
                merged.items(), key=lambda item: tuple(str(part) for part in item[0])
            )
        ]


def by_name(aggregates: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Fold aggregates over parents and jobs: ``{name: {calls, self_s,
    total_s, truthy}}``.  ``total_s`` double-counts recursive calls;
    ``self_s`` never does."""
    folded: Dict[str, Dict[str, float]] = {}
    for entry in aggregates:
        slot = folded.setdefault(
            entry["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "truthy": 0}
        )
        for field in ("calls", "self_s", "total_s", "truthy"):
            slot[field] += entry[field]
    return folded

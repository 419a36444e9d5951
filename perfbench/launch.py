"""Traced launcher: wrap the program's layer functions, then run one of
its entry points in this process.

Usage::

    python perfbench/launch.py TRACE.json repro.cli run E3 --json
    python perfbench/launch.py TRACE.json repro.service serve --port 0 ...

The second argument names the module whose ``main(argv)`` the plain
``python -m <module>`` invocation would run (``repro.service`` runs
``repro.service.__main__``).  When the entry point returns, the span
aggregates, the rebinding counts and the engine's counters are written
to TRACE.json, and the launcher exits with the entry point's code.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Replace the script directory with the checkout root (for the
# ``perfbench`` package) and the program's sources.
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.layers import install  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def main(argv: list) -> int:
    trace_path, module_name, *program_argv = argv
    tracer = Tracer()
    rebound = install(tracer)
    module = importlib.import_module(module_name)
    if not hasattr(module, "main"):
        module = importlib.import_module(module_name + ".__main__")
    from repro.engine import engine_stats

    started = time.perf_counter()
    code = 1
    try:
        code = module.main(program_argv)
    finally:
        payload = {
            "exit_code": code,
            "seconds": time.perf_counter() - started,
            "rebound": rebound,
            "aggregates": tracer.aggregates(),
            "counters": engine_stats().counters(),
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

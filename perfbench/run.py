"""The repository's benchmark: one command for every workload.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload through the traced launcher as well
and prints every per-layer metric.  Human-readable lines come first;
the last line of standard output is the JSON result.  The exit code
is 0 whenever a result is printed (``correct`` says whether every
output checked out) and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT]  # import ``perfbench`` as a package

from perfbench import paper, proc, service  # noqa: E402
from perfbench.report import result_line  # noqa: E402

WORKLOADS = (paper.WORKLOAD, service.WORKLOAD)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that every process started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        proc.require_program()
        proc.compile_sources()
    except (proc.ProgramMissing, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: cannot run the program: {error}", file=sys.stderr)
        return 2
    workdir = proc.make_workdir(arguments.workload)
    try:
        if arguments.workload == service.WORKLOAD:
            outcome = service.run(arguments.seed, arguments.seconds,
                                  bool(arguments.trace), workdir)
        else:
            outcome = paper.run(arguments.seconds, bool(arguments.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in sorted(outcome.metrics.items()):
        print(f"{arguments.workload} {name} = {value}")
    for problem in outcome.problems:
        print(f"{arguments.workload} FAILED: {problem}")
    print(f"{arguments.workload} operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed, failure_ratio = "
          f"{outcome.failed / max(outcome.attempted, 1)}")
    print(result_line(outcome, bool(arguments.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

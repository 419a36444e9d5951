"""Spawning the program: paths, environment, and per-process resource
usage.

Every program process is started from the checkout root with
``PYTHONPATH=src`` and with every ``REPRO_*`` knob removed, so the
program runs on its defaults (backend, symmetry, plan, workers).
Processes are reaped with ``os.wait4`` to read their own peak RSS.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import IO, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(ROOT, "perfbench", "launch.py")
WORK_ROOT = os.path.join(ROOT, "perfbench", ".work")
PYTHON = sys.executable


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def require_program() -> None:
    for part in ("cli.py", os.path.join("service", "__main__.py")):
        if not os.path.isfile(os.path.join(SRC, "repro", part)):
            raise ProgramMissing(f"no program sources at {os.path.join(SRC, 'repro')}")


def make_workdir(label: str) -> str:
    path = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env(workdir: str) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir  # keep scratch files inside the checkout
    return env


def compile_sources() -> None:
    """Byte-compile the program once, so the first timed process does
    not pay for it."""
    subprocess.run(
        [PYTHON, "-m", "compileall", "-q", SRC],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def program_argv(module: str, args: List[str], trace_path: Optional[str]) -> List[str]:
    """``python -m <module> args``, or the same entry point through the
    traced launcher when *trace_path* is given."""
    if trace_path is None:
        return [PYTHON, "-m", module, *args]
    return [PYTHON, LAUNCHER, trace_path, module, *args]


@dataclass
class Finished:
    returncode: int
    wall_s: float
    peak_rss_mb: float


def spawn(argv: List[str], env: dict, stdout: IO, stderr: IO) -> subprocess.Popen:
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)


def reap(process: subprocess.Popen, started: float, timeout: float) -> Finished:
    """Wait for *process* (killing it after *timeout* seconds) and
    return its exit code, wall time since *started* and peak RSS."""
    killer = threading.Timer(timeout, process.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(process.pid, 0)
    except BaseException:  # interrupted: leave no process behind
        process.kill()
        process.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return Finished(process.returncode, wall, usage.ru_maxrss / 1024.0)


def run(argv: List[str], env: dict, stdout_path: str, stderr_path: str,
        timeout: float) -> Finished:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        process = spawn(argv, env, out, err)
        return reap(process, started, timeout)

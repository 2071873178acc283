"""Running ``cait`` steps: as measured processes or in this process."""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 8  # at least, spread over the run: two after every pass
STEP_TIMEOUT_S = 120  # a step still running then is killed and fails its check


@dataclass
class Step:
    name: str  # metric key: cli.<name>_s
    argv: list[str]
    tokens_read: int
    outputs: list[str] = field(default_factory=list)
    exit_code: int = 0


@dataclass
class StepRun:
    wall: float
    cpu: float
    maxrss_kb: int
    code: int


def step_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CAIT_LEXICON", None)  # the packaged lexicon, always
    return env


def run_process(argv: list[str], cwd: Path, env: dict, stdout, stderr) -> StepRun:
    """Run one process to its end; wall time, CPU and peak RSS of its
    whole tree come from ``os.wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL)
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StepRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   proc.returncode)


def run_step(step: Step, work: Path, env: dict) -> StepRun:
    with open(work / f"{step.name}.stdout", "wb") as out, \
            open(work / f"{step.name}.stderr", "wb") as err:
        return run_process([sys.executable, "-m", "cait.cli", *step.argv],
                           work, env, out, err)


def run_inprocess(step: Step, work: Path, tag: str) -> tuple[float, int]:
    """Run ``cait.cli.main(argv)`` in this process, with the step's
    standard streams sent to files; returns (wall seconds, exit code)."""
    import cait.cli

    root_logger = logging.getLogger()
    old = sys.stdout, sys.stderr
    with open(work / f"{step.name}.{tag}.stdout", "w", encoding="utf-8") as out, \
            open(work / f"{step.name}.{tag}.stderr", "w", encoding="utf-8") as err:
        sys.stdout, sys.stderr = out, err
        try:
            start = time.perf_counter()
            code = cait.cli.main(list(step.argv))
            wall = time.perf_counter() - start
        finally:
            sys.stdout, sys.stderr = old
            for handler in list(root_logger.handlers):
                root_logger.removeHandler(handler)
    return wall, code


def setup_seconds(env: dict, work: Path) -> float:
    """Launch-to-exit time of ``python -m cait.cli --help``."""
    r = run_process([sys.executable, "-m", "cait.cli", "--help"], work, env,
                    subprocess.DEVNULL, subprocess.DEVNULL)
    if r.code != 0:
        raise RuntimeError(f"cait --help exited with {r.code}")
    return r.wall

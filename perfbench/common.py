"""Paths of the checkout under test and the one way the benchmark starts a child process."""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Scratch space for instance files and child stats; removed after each worker.
WORK = ROOT / ".perfbench_work"


def child_env() -> dict:
    """Environment for a child that must import kinclust from this checkout only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    argv: list[str],
    timeout: float,
    cwd: Path | None = None,
    capture_stderr: bool = True,
    own_group: bool = False,
) -> tuple[int, str, str]:
    """Run a child to completion and return (exit code, stdout, stderr).

    With ``own_group`` the child leads a new process group, and a timeout
    kills the whole group (the child and anything it started) before
    waiting for it; otherwise a timeout kills the child alone.  Either way
    the child has ended when this returns or raises.
    """
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None,
        text=True,
        start_new_session=own_group,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        if own_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err or ""

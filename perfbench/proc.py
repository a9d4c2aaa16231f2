"""Run one child command and measure it from the outside.

Wall time runs from just before the spawn to the reap, so interpreter
start-up is included.  CPU time and peak resident set come from
``wait4``: Linux folds the usage of every descendant the child reaped
(its pool workers) into the child's own figures.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence


class ChildTimeout(RuntimeError):
    """A child ran past its limit and was killed with its process group."""


@dataclass(frozen=True)
class Measured:
    pid: int
    wall_s: float
    cpu_s: float
    #: Largest resident set of the child or any descendant it reaped.
    peak_rss_mb: float
    returncode: int


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_measured(cmd: Sequence[str], *, cwd: Path, env: Dict[str, str],
                 stdout: Path, stderr: Path,
                 timeout_s: float) -> Measured:
    """Run ``cmd`` to completion in its own process group.

    Output goes to the two files.  A child still running after
    ``timeout_s`` is killed together with everything it started, and
    :class:`ChildTimeout` is raised.  Whatever the outcome, nothing of the
    child's process group is left running.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(cmd), cwd=str(cwd), env=env,
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        timed_out = threading.Event()

        def expire() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, expire)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Stragglers (orphaned workers of a crashed child) die with the group.
    _kill_group(proc.pid)
    if timed_out.is_set():
        raise ChildTimeout(f"{cmd[0]} ran past {timeout_s:.0f}s and was "
                           f"killed")
    return Measured(pid=proc.pid, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    returncode=proc.returncode)


def python_env(root: Path, extra: Optional[Dict[str, str]] = None
               ) -> Dict[str, str]:
    """Environment for a child interpreter running the checkout's code.

    ``src`` carries the program and the checkout root carries the
    benchmark package; no result cache outside the checkout is ever
    consulted because every command names its cache directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env.pop("LUKEWARM_CACHE_DIR", None)
    if extra:
        env.update(extra)
    return env

#!/usr/bin/env python
"""CI chaos smoke: the engine survives kills, hangs, torn writes, SIGKILL.

A fast (~seconds) end-to-end drill run by ``scripts/check.sh`` after the
lint and bench gates.  Four scenarios, each asserting *byte-identical*
canonical-JSON results against an undisturbed serial baseline:

1. **worker chaos** -- a pooled sweep with an injected worker kill, an
   unbounded hang (reaped by the job-deadline guard), and a transient
   failure, all recovered by the retry policy;
2. **disk chaos** -- torn cache entries and an injected ``ENOSPC`` store
   failure; the sweep degrades gracefully and recomputes damaged cells;
3. **fsck** -- seeded corruption is detected by an audit pass and fully
   repaired by ``python -m repro.engine fsck --repair``;
4. **crash recovery** -- a serial driver subprocess is SIGKILLed after a
   seeded number of checkpoints, then rerun: the rerun resumes from the
   incremental cache and reproduces the baseline byte-for-byte;
5. **fleet crash recovery** -- the same drill at region scale: a fleet
   region sweep (``tests.fleet.fleet_driver``) is SIGKILLed mid-shard,
   and the rerun must serve the checkpointed shards warm and aggregate
   to a byte-identical region result.
6. **spectrum crash recovery** -- the cold→warm spectrum sweep
   (``tests.coldstart.spectrum_driver``) is SIGKILLed mid-cell, and the
   rerun must serve the checkpointed cells warm and print a
   byte-identical grid -- the engine cache makes cold-start cells, with
   their stateful page record/replay, as resumable as everything else.

Run from the repo root with ``PYTHONPATH=src`` (check.sh does both).
Exit status 0 on success; any assertion failure is a real regression in
the failure-handling stack.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # for tests.engine.* providers
sys.path.insert(0, str(ROOT / "src"))

from repro.engine import FailurePolicy, configure, sweep_outcomes  # noqa: E402
from repro.engine.fsck import fsck  # noqa: E402
from tests.engine.crash_driver import make_jobs, result_line  # noqa: E402

COUNT = 6
SEED = 20220618  # the paper's conference date; any fixed value works


def baseline() -> str:
    """The undisturbed serial ground truth."""
    with configure():
        values = [o.value for o in sweep_outcomes(make_jobs(COUNT))]
    return result_line(values)


def scenario_worker_chaos(expected: str, tmp: Path) -> None:
    faults = ["kill:#1", "hang:#2", "fail:#3"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with configure(jobs=2, cache_dir=tmp / "worker-chaos",
                       clock=time.monotonic, job_timeout_s=5.0,
                       policy=FailurePolicy.retrying(retries=2),
                       faults=faults) as ctx:
            outcomes = sweep_outcomes(make_jobs(COUNT))
    assert all(o.ok for o in outcomes), [o.describe() for o in outcomes]
    got = result_line([o.value for o in outcomes])
    assert got == expected, "worker chaos changed results"
    print(f"  worker chaos ok ({ctx.stats.retries} retries, "
          f"{len(faults)} faults injected)")


def scenario_disk_chaos(expected: str, tmp: Path) -> None:
    cache_dir = tmp / "disk-chaos"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # Cells checkpoint in order, and the ENOSPC degrades every later
        # store -- so both torn cells must land before it fires.
        with configure(cache_dir=cache_dir,
                       faults=["torn:#0", "torn:#1", "enospc:#2"]) as ctx:
            first = sweep_outcomes(make_jobs(COUNT))
            # Rerun inside the same context: torn entries quarantine and
            # recompute; the store path stays degraded after the ENOSPC.
            second = sweep_outcomes(make_jobs(COUNT))
    for outcomes in (first, second):
        got = result_line([o.value for o in outcomes])
        assert got == expected, "disk chaos changed results"
    quarantined = ctx.tracer.counts.get("cache.quarantine", 0)
    assert quarantined >= 2, "torn entries not quarantined"
    assert ctx.cache.stores_disabled, "ENOSPC did not degrade stores"
    print(f"  disk chaos ok ({quarantined} quarantined, "
          f"stores degraded after ENOSPC)")


def scenario_fsck(expected: str, tmp: Path) -> None:
    cache_dir = tmp / "fsck"
    with configure(cache_dir=cache_dir):
        sweep_outcomes(make_jobs(COUNT))
    # Seed damage underneath: truncate one entry, garbage another.
    entries = sorted(p for p in cache_dir.rglob("*.pkl"))
    entries[0].write_bytes(entries[0].read_bytes()[:-7])
    entries[1].write_bytes(b"not a cache entry")
    report = fsck(cache_dir)
    assert not report.clean and len(report.problems) == 2, report.describe()
    repaired = fsck(cache_dir, repair=True)
    assert repaired.clean and repaired.quarantined == 2, repaired.describe()
    with configure(cache_dir=cache_dir) as ctx:
        outcomes = sweep_outcomes(make_jobs(COUNT))
    got = result_line([o.value for o in outcomes])
    assert got == expected, "fsck repair changed results"
    assert ctx.stats.hits == COUNT - 2 and ctx.stats.misses == 2
    print(f"  fsck ok (2 defects found, 2 quarantined, resume warm)")


def scenario_crash_recovery(expected: str, tmp: Path) -> None:
    cache_dir = tmp / "crash"
    kill_after = random.Random(SEED).randrange(1, COUNT)
    cmd = [sys.executable, "-m", "tests.engine.crash_driver",
           "--cache-dir", str(cache_dir), "--count", str(COUNT)]
    env = dict(os.environ,
               PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    victim = subprocess.Popen(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True)
    seen = 0
    for line in victim.stdout:
        if line.startswith("cell "):
            seen += 1
            if seen >= kill_after:
                victim.send_signal(signal.SIGKILL)
                break
    victim.wait()
    assert victim.returncode == -signal.SIGKILL
    rerun = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, check=True)
    lines = rerun.stdout.strip().splitlines()
    got = next(l for l in lines if l.startswith("RESULT "))
    stats = next(l for l in lines if l.startswith("STATS "))
    assert got == expected, "post-SIGKILL resume changed results"
    hits = int(stats.split("hits=")[1].split()[0])
    assert hits >= kill_after, f"resume re-simulated cached cells: {stats}"
    print(f"  crash recovery ok (SIGKILL after {kill_after}/{COUNT} "
          f"checkpoints, resume byte-identical, {hits} cells from cache)")


def scenario_fleet_crash(tmp: Path) -> None:
    from tests.fleet.fleet_driver import (
        DRILL_SHARDS,
        drill_config,
        result_line as fleet_result_line,
    )
    from repro.fleet.region import shard_jobs

    # Undisturbed in-process ground truth (serial, uncached).
    with configure():
        outcomes = sweep_outcomes(shard_jobs(drill_config(SEED % 97),
                                             shards=DRILL_SHARDS))
    expected = fleet_result_line(
        [node for o in outcomes for node in o.value])

    cache_dir = tmp / "fleet-crash"
    kill_after = random.Random(SEED + 1).randrange(1, DRILL_SHARDS)
    cmd = [sys.executable, "-m", "tests.fleet.fleet_driver",
           "--cache-dir", str(cache_dir), "--seed", str(SEED % 97)]
    env = dict(os.environ,
               PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    victim = subprocess.Popen(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True)
    seen = 0
    for line in victim.stdout:
        if line.startswith("shard "):
            seen += 1
            if seen >= kill_after:
                victim.send_signal(signal.SIGKILL)
                break
    victim.wait()
    assert victim.returncode == -signal.SIGKILL
    rerun = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, check=True)
    lines = rerun.stdout.strip().splitlines()
    got = next(l for l in lines if l.startswith("RESULT "))
    stats = next(l for l in lines if l.startswith("STATS "))
    assert got == expected, "post-SIGKILL fleet resume changed the region"
    hits = int(stats.split("hits=")[1].split()[0])
    assert hits >= kill_after, f"fleet resume re-simulated shards: {stats}"
    print(f"  fleet crash recovery ok (SIGKILL after {kill_after}/"
          f"{DRILL_SHARDS} shards, region byte-identical, "
          f"{hits} shards from cache)")


def scenario_spectrum_crash(tmp: Path) -> None:
    from tests.coldstart.spectrum_driver import (
        drill_jobs,
        result_line as spectrum_result_line,
    )

    # Undisturbed in-process ground truth (serial, uncached).
    jobs = drill_jobs(SEED % 89)
    with configure():
        outcomes = sweep_outcomes(jobs)
    expected = spectrum_result_line([dict(o.value) for o in outcomes])

    cache_dir = tmp / "spectrum-crash"
    kill_after = random.Random(SEED + 2).randrange(1, len(jobs))
    cmd = [sys.executable, "-m", "tests.coldstart.spectrum_driver",
           "--cache-dir", str(cache_dir), "--seed", str(SEED % 89)]
    env = dict(os.environ,
               PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    victim = subprocess.Popen(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True)
    seen = 0
    for line in victim.stdout:
        if line.startswith("cell "):
            seen += 1
            if seen >= kill_after:
                victim.send_signal(signal.SIGKILL)
                break
    victim.wait()
    assert victim.returncode == -signal.SIGKILL
    rerun = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, check=True)
    lines = rerun.stdout.strip().splitlines()
    got = next(l for l in lines if l.startswith("RESULT "))
    stats = next(l for l in lines if l.startswith("STATS "))
    assert got == expected, "post-SIGKILL spectrum resume changed the grid"
    hits = int(stats.split("hits=")[1].split()[0])
    assert hits >= kill_after, f"spectrum resume re-simulated cells: {stats}"
    print(f"  spectrum crash recovery ok (SIGKILL after {kill_after}/"
          f"{len(jobs)} cells, grid byte-identical, {hits} cells from "
          f"cache)")


def main() -> int:
    expected = baseline()
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp = Path(tmp)
        scenario_worker_chaos(expected, tmp)
        scenario_disk_chaos(expected, tmp)
        scenario_fsck(expected, tmp)
        scenario_crash_recovery(expected, tmp)
        scenario_fleet_crash(tmp)
        scenario_spectrum_crash(tmp)
    print("chaos smoke: all scenarios byte-identical to baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Crash recovery: SIGKILLed drivers resume byte-identically from cache.

The driver under test is :mod:`tests.engine.crash_driver` -- a serial
sweep printing one flushed line per cache checkpoint.  The battery
SIGKILLs it at seeded points in the schedule, reruns it, and
byte-compares the rerun's canonical-JSON RESULT line against an
undisturbed in-process baseline; the incremental result cache is the
only recovery log there is.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import configure, sweep_outcomes
from tests.engine.crash_driver import make_jobs, result_line

ROOT = Path(__file__).resolve().parent.parent.parent
COUNT = 5
SEED = 1207  # arbitrary but pinned: the kill schedule must be replayable


def driver_cmd(cache_dir: Path):
    return [sys.executable, "-m", "tests.engine.crash_driver",
            "--cache-dir", str(cache_dir), "--count", str(COUNT)]


def driver_env():
    return dict(os.environ,
                PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")


def run_driver(cache_dir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(driver_cmd(cache_dir), cwd=ROOT, env=driver_env(),
                          capture_output=True, text=True, check=True,
                          timeout=120)


def kill_after_checkpoints(cache_dir: Path, checkpoints: int) -> None:
    victim = subprocess.Popen(driver_cmd(cache_dir), cwd=ROOT,
                              env=driver_env(), stdout=subprocess.PIPE,
                              text=True)
    seen = 0
    for line in victim.stdout:
        if line.startswith("cell "):
            seen += 1
            if seen >= checkpoints:
                victim.send_signal(signal.SIGKILL)
                break
    assert victim.wait(timeout=120) == -signal.SIGKILL
    victim.stdout.close()


def parse_run(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    result = next(l for l in lines if l.startswith("RESULT "))
    stats = next(l for l in lines if l.startswith("STATS "))
    hits = int(stats.split("hits=")[1].split()[0])
    return result, hits


@pytest.fixture(scope="module")
def expected():
    """The undisturbed ground truth, computed in-process."""
    with configure():
        values = [o.value for o in sweep_outcomes(make_jobs(COUNT))]
    return result_line(values)


class TestSigkillResume:
    def test_seeded_kill_points_resume_byte_identical(self, expected,
                                                      tmp_path):
        # Two seeded kill points: early in the schedule and late.
        rng = random.Random(SEED)
        points = sorted(rng.sample(range(1, COUNT), 2))
        for kill_after in points:
            cache_dir = tmp_path / f"kill-{kill_after}"
            kill_after_checkpoints(cache_dir, kill_after)
            result, hits = parse_run(run_driver(cache_dir))
            assert result == expected, (
                f"resume after SIGKILL@{kill_after} changed results")
            # Every checkpointed cell must come back from the cache.
            assert hits >= kill_after

    def test_repeated_kills_still_converge(self, expected, tmp_path):
        # Kill after every single checkpoint; each rerun advances the
        # frontier by at least one cell, so COUNT runs always finish it.
        cache_dir = tmp_path / "repeat"
        for _ in range(COUNT - 1):
            kill_after_checkpoints(cache_dir, 1)
        result, hits = parse_run(run_driver(cache_dir))
        assert result == expected
        assert hits >= 1

    def test_unkilled_driver_matches_in_process_baseline(self, expected,
                                                         tmp_path):
        result, hits = parse_run(run_driver(tmp_path / "clean"))
        assert result == expected
        assert hits == 0


class TestConcurrentSweeps:
    def test_two_drivers_share_one_cache_root(self, expected, tmp_path):
        # The advisory lock is *shared* for sweeps: two drivers on one
        # cache directory must both finish (no lock-out) and agree.
        cache_dir = tmp_path / "shared"
        first = subprocess.Popen(driver_cmd(cache_dir), cwd=ROOT,
                                 env=driver_env(), stdout=subprocess.PIPE,
                                 text=True)
        second = subprocess.Popen(driver_cmd(cache_dir), cwd=ROOT,
                                  env=driver_env(), stdout=subprocess.PIPE,
                                  text=True)
        out_first, _ = first.communicate(timeout=120)
        out_second, _ = second.communicate(timeout=120)
        assert first.returncode == 0 and second.returncode == 0
        for out in (out_first, out_second):
            result = next(l for l in out.splitlines()
                          if l.startswith("RESULT "))
            assert result == expected, "concurrent sweeps diverged"

    def test_fsck_is_locked_out_across_processes(self, tmp_path):
        # Hold the sweep's shared lock in this process; an fsck launched
        # as a *separate* process must see it through flock and exit 3.
        from repro.engine import ResultCache
        cache_dir = tmp_path / "busy"
        cache = ResultCache(cache_dir)
        cache.put("ab" + "0" * 62, 1)
        cache.open()
        try:
            probe = subprocess.run(
                [sys.executable, "-m", "repro.engine", "fsck",
                 str(cache_dir)],
                cwd=ROOT, env=driver_env(), capture_output=True, text=True,
                timeout=120)
            assert probe.returncode == 3, probe.stderr
            assert "live sweep" in probe.stderr
        finally:
            cache.close()
        released = subprocess.run(
            [sys.executable, "-m", "repro.engine", "fsck", str(cache_dir)],
            cwd=ROOT, env=driver_env(), capture_output=True, text=True,
            timeout=120)
        assert released.returncode == 0, released.stderr


class TestCrashHygiene:
    def test_rerun_reaps_stale_temp_files(self, expected, tmp_path):
        # A crash can strand a half-written temp file; the next open
        # reaps it (the writer pid is dead) and the rerun still matches.
        cache_dir = tmp_path / "stale"
        kill_after_checkpoints(cache_dir, 1)
        # The killed driver may already have made the next cell's fanout
        # directory, so take the slot of the entry that landed.
        entry = next(cache_dir.glob("??/*.pkl"))
        slot = entry.parent
        stale = slot / f".{entry.name}.99999999.tmp"
        stale.write_bytes(b"half a write")
        result, _ = parse_run(run_driver(cache_dir))
        assert result == expected
        assert not stale.exists()

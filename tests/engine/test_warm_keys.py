"""The warm path keys cells from their sources alone.

Every cached cell is keyed by :meth:`repro.engine.Job.key`, which folds
in one digest of the ``repro`` sources.  A fresh interpreter derives the
same key for every cell each experiment sweeps; a second process hits
what the first stored without building the analyzer's package graph; a
source edit misses every cell of a warm root; and a root written before
keys took this shape -- with its ``closures/`` memo -- still opens,
sweeps and passes ``fsck``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.engine.job as jobmod
from repro import engine
from repro.engine import Job, ResultCache, invalidate_fingerprint_caches
from repro.engine.fsck import fsck
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment
from tests.engine.test_cache_durability import dead_pid

SRC = Path(__file__).resolve().parents[2] / "src"
REPO = SRC.parent

#: One experiment per provider module the experiments name.
EXPERIMENTS = ("fig01", "fig06", "fig08", "fig10", "spectrum", "fleet")

FAKE_PROVIDER = "tests.engine.fake_provider"


@pytest.fixture()
def fresh_caches():
    invalidate_fingerprint_caches()
    yield
    invalidate_fingerprint_caches()


def _fresh_interpreter(script: str, *args: str) -> str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(REPO)])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          cwd=REPO, capture_output=True, text=True,
                          check=True).stdout


_KEYS_SCRIPT = """
import json, sys
from repro import engine
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment


class Captured(Exception):
    pass


class Capture:
    jobs = 1

    def run_tasks(self, tasks, on_outcome=None, guard=None):
        cells.extend(task.job for task in tasks)
        raise Captured


cells = []
with engine.configure() as ctx:
    ctx.executor = Capture()
    try:
        run_experiment(sys.argv[1], RunConfig.fast())
    except Captured:
        pass
print(json.dumps([job.key() for job in cells]))
"""


class Captured(Exception):
    pass


class Capture:
    """An executor that records the first batch of cells and stops."""

    jobs = 1

    def __init__(self) -> None:
        self.cells: list = []

    def run_tasks(self, tasks, on_outcome=None, guard=None):
        self.cells.extend(task.job for task in tasks)
        raise Captured


def _captured_cells(name: str) -> list:
    """The first batch of cells ``lukewarm-repro <name> --fast`` sweeps,
    built by the experiment's own code (nothing runs)."""
    capture = Capture()
    with engine.configure() as ctx:
        ctx.executor = capture
        with pytest.raises(Captured):
            run_experiment(name, RunConfig.fast())
    return capture.cells


class TestKeysAcrossProcesses:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_cell_keys_alike_in_a_fresh_interpreter(
            self, experiment, fresh_caches):
        cells = _captured_cells(experiment)
        assert cells
        keys = [job.key() for job in cells]
        assert len(set(keys)) == len(keys)
        assert json.loads(_fresh_interpreter(_KEYS_SCRIPT, experiment)) \
            == keys


_SWEEP_SCRIPT = """
import sys
from pathlib import Path
import tests.engine.fake_provider  # registers resilience_echo
from repro import engine
from repro.engine.job import Job
from repro.lint.graph import ProjectGraph


def refuse(*args, **kwargs):
    raise RuntimeError("the package graph was built")


ProjectGraph.from_package = classmethod(refuse)
root = Path(sys.argv[1])
job = Job.make("Fib-P", None, {"n": 1}, "resilience_echo",
               provider="tests.engine.fake_provider")
with engine.configure(cache_dir=root):
    [outcome] = engine.sweep_outcomes([job])
stored = ",".join(sorted(path.stem for path in root.rglob("*.pkl")))
print(outcome.from_cache, stored, job.key())
"""


def _echo_jobs(count: int = 3) -> list:
    import tests.engine.fake_provider  # noqa: F401  registers the config

    return [Job.make("Fib-P", None, {"n": n}, "resilience_echo",
                     provider=FAKE_PROVIDER) for n in range(count)]


def _stored_keys(root: Path) -> set:
    return {path.stem for path in root.rglob("*.pkl")}


class TestWarmRoots:
    def test_a_second_process_hits_without_the_graph(self, tmp_path):
        """Neither the filling process nor the re-running one builds the
        analyzer's graph; the second serves the first's entry."""
        root = tmp_path / "cache"
        hit, stored, key = _fresh_interpreter(_SWEEP_SCRIPT,
                                              str(root)).split()
        assert hit == "False" and stored == key
        again = _fresh_interpreter(_SWEEP_SCRIPT, str(root))
        assert again.split() == ["True", key, key]

    def test_a_sweep_stores_each_cell_under_its_key(self, tmp_path):
        jobs = _echo_jobs()
        root = tmp_path / "cache"
        with engine.configure(cache_dir=root):
            outcomes = engine.sweep_outcomes(jobs)
        assert [o.from_cache for o in outcomes] == [False] * len(jobs)
        assert _stored_keys(root) == {job.key() for job in jobs}

    def test_a_repro_edit_misses_every_cell_of_a_warm_root(
            self, tmp_path, monkeypatch, fresh_caches):
        """The trade-off of one whole-package digest: any ``repro``
        source edit re-runs every cached cell, whatever imports it."""
        copy = tmp_path / "repro"
        shutil.copytree(SRC / "repro", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(jobmod, "_REPRO_ROOT", copy)
        jobs = _echo_jobs()
        root = tmp_path / "cache"
        with engine.configure(cache_dir=root):
            engine.sweep_outcomes(jobs)
            warm = engine.sweep_outcomes(jobs)
        assert all(o.from_cache for o in warm)
        before = _stored_keys(root)
        render = copy / "obs" / "summarize.py"
        render.write_text(render.read_text() + "\n# edited\n")
        invalidate_fingerprint_caches()
        with engine.configure(cache_dir=root):
            edited = engine.sweep_outcomes(jobs)
        assert not any(o.from_cache for o in edited)
        assert _stored_keys(root) == before | {job.key() for job in jobs}
        assert len(_stored_keys(root)) == 2 * len(jobs)

    def test_an_old_roots_closure_memo_is_left_alone(self, tmp_path):
        """A root filled before keys dropped the closure memo still
        sweeps and audits clean; its stale memo is neither read nor
        removed."""
        root = tmp_path / "cache"
        memo = root / "closures" / "repro.json"
        memo.parent.mkdir(parents=True)
        memo.write_text(json.dumps({"key": "0" * 64, "modules": {}}))
        jobs = _echo_jobs()
        with engine.configure(cache_dir=root):
            engine.sweep_outcomes(jobs)
            warm = engine.sweep_outcomes(jobs)
        assert all(o.from_cache for o in warm)
        report = fsck(root)
        assert report.clean
        assert report.scanned == report.ok == len(jobs)
        assert memo.is_file()

    def test_an_old_memo_writers_orphan_is_reaped(self, tmp_path):
        """The old memo's temp files were named like the cache's own, so
        the orphan of a writer killed before its rename is reaped when
        the cache opens."""
        root = tmp_path / "cache"
        orphan = root / "closures" / f".repro.json.{dead_pid()}.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("half a memo")
        ResultCache(root).open().close()
        assert not orphan.exists()

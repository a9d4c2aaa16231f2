"""Soundness of the provider-closure memo under a result-cache root.

``provider_closure``/``provider_version`` memoize each package's import
closures in ``<cache root>/closures/<package>.json``, keyed by
:func:`repro.engine.job.closure_memo_key`.  A memo-served closure must
equal the graph-built one for every module, on the writing call and on a
read from a fresh interpreter; a damaged or stale memo must be rebuilt,
never served; and a failed write must change no key.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro.engine.job as jobmod
from repro import engine
from repro.engine.cache import ResultCache, _tmp_pid
from repro.engine.job import (
    CLOSURE_MEMO_DIR,
    closure_memo_key,
    invalidate_fingerprint_caches,
    provider_closure,
    provider_version,
)
from repro.experiments.common import RunConfig
from repro.experiments.runner import run_experiment
from tests.engine.test_cache_durability import dead_pid
from tests.lint.test_soundness import CONTROL_FILES, PROVIDER_FILES, _write_tree

SRC = Path(__file__).resolve().parents[2] / "src"
REPO = SRC.parent


@pytest.fixture()
def fresh_caches():
    invalidate_fingerprint_caches()
    yield
    invalidate_fingerprint_caches()


@pytest.fixture()
def synthetic(tmp_path, monkeypatch, fresh_caches):
    """The stale-cache test's provider and control packages, importable."""
    _write_tree(tmp_path / "pkgs" / "provpkg", PROVIDER_FILES)
    _write_tree(tmp_path / "pkgs" / "ctrlpkg", CONTROL_FILES)
    monkeypatch.syspath_prepend(str(tmp_path / "pkgs"))
    return tmp_path / "pkgs"


def _modules(package: str) -> list:
    root = jobmod._package_root(package)
    return sorted(jobmod._graph_table(str(root), package))


def _fingerprints(modules, cache_root=None) -> dict:
    return {m: [list(provider_closure(m, cache_root)),
                provider_version(m, cache_root)] for m in modules}


def _memo(root: Path, package: str = "repro") -> Path:
    return root / CLOSURE_MEMO_DIR / f"{package}.json"


_FINGERPRINT_SCRIPT = """
import json, sys
from repro.engine.job import provider_closure, provider_version
root, modules = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps({m: [list(provider_closure(m, root)),
                      provider_version(m, root)] for m in modules}))
"""


def _fresh_interpreter(script: str, *args: str, path=()) -> str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(REPO), *path])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          cwd=REPO, capture_output=True, text=True,
                          check=True).stdout


class TestMemoServesTheGraphsClosures:
    @pytest.mark.parametrize("package", ["repro", "synthetic"])
    def test_writing_call_and_fresh_read_equal_the_graph(
            self, package, synthetic, tmp_path):
        packages = ["repro"] if package == "repro" else ["provpkg", "ctrlpkg"]
        modules = [m for p in packages for m in _modules(p)]
        built = _fingerprints(modules)
        invalidate_fingerprint_caches()
        root = tmp_path / "cache"
        written = _fingerprints(modules, root)
        assert written == built
        for p in packages:
            assert _memo(root, p).is_file()
        read = json.loads(_fresh_interpreter(
            _FINGERPRINT_SCRIPT, str(root), json.dumps(modules),
            path=[str(synthetic)]))
        assert read == built

    def test_memo_holds_every_module_of_the_graph(self, fresh_caches,
                                                  tmp_path):
        provider_version("repro.experiments.common", tmp_path)
        memo = json.loads(_memo(tmp_path).read_text())
        assert sorted(memo["modules"]) == _modules("repro")
        assert memo["modules"]["repro.engine.job"][0] == "engine/job.py"


def _captured_cells(argv) -> list:
    """The first batch of cells a ``lukewarm-repro`` command sweeps,
    built by the experiment's own code (nothing runs)."""
    class Captured(Exception):
        pass

    class Capture:
        jobs = 1

        def run_tasks(self, tasks, on_outcome=None, guard=None):
            cells.extend(task.job for task in tasks)
            raise Captured

    cells: list = []
    name, *functions = argv
    with engine.configure() as ctx:
        ctx.executor = Capture()
        with pytest.raises(Captured):
            run_experiment(name, RunConfig.fast(), functions or None)
    return cells


class TestKeysAreMemoIndependent:
    @pytest.mark.parametrize("experiment", ["fig10", "spectrum"])
    def test_no_cold_and_warm_memo_give_equal_keys(self, experiment,
                                                   fresh_caches, tmp_path):
        cells = _captured_cells([experiment])
        assert cells
        plain = [job.key() for job in cells]
        invalidate_fingerprint_caches()
        root = tmp_path / "cache"
        cold = [job.key(cache_root=root) for job in cells]
        assert _memo(root).is_file()
        invalidate_fingerprint_caches()
        warm = [job.key(cache_root=root) for job in cells]
        assert plain == cold == warm


def _good_memo(root: Path) -> bytes:
    invalidate_fingerprint_caches()
    provider_closure("repro.experiments.common", root)
    invalidate_fingerprint_caches()
    return _memo(root).read_bytes()


def _poisoned(good: bytes, key: str = "") -> bytes:
    """The memo with every closure cut to its own module: well-formed, so
    only the key check can refuse it."""
    memo = json.loads(good)
    memo["key"] = key or memo["key"]
    memo["modules"] = {name: [entry[0], [name]]
                       for name, entry in memo["modules"].items()}
    return json.dumps(memo).encode()


def _damaged(good: bytes, damage: str) -> bytes:
    if damage == "truncated":
        return good[:len(good) // 2]
    if damage == "garbage":
        return bytes(range(256)) * 8
    if damage == "empty":
        return b""
    if damage == "other-key":
        return _poisoned(good, key="0" * 64)
    if damage == "not-an-object":
        return b"[1, 2, 3]"
    memo = json.loads(good)
    modules = memo["modules"]
    if damage == "modules-not-a-map":
        memo["modules"] = list(modules)
    elif damage == "path-outside-package":
        modules["repro.experiments.common"][0] = "../../../etc/hosts"
    elif damage == "closure-misses-itself":
        modules["repro.experiments.common"][1].remove(
            "repro.experiments.common")
    elif damage == "unknown-module-in-closure":
        modules["repro.experiments.common"][1].append("zz.nowhere")
    elif damage == "entry-not-a-pair":
        modules["repro.experiments.common"] = "common.py"
    elif damage == "path-not-a-string":
        modules["repro.experiments.common"][0] = ["experiments"]
    elif damage == "closure-member-not-a-string":
        modules["repro.experiments.common"][1].insert(0, ["repro"])
    return json.dumps(memo).encode()


class TestDamagedMemosAreRebuilt:
    @pytest.mark.parametrize("damage", [
        "truncated", "garbage", "empty", "other-key", "not-an-object",
        "modules-not-a-map", "path-outside-package",
        "closure-misses-itself", "unknown-module-in-closure",
        "entry-not-a-pair", "path-not-a-string",
        "closure-member-not-a-string",
    ])
    def test_rebuilt_and_replaced_never_served(self, damage, fresh_caches,
                                               tmp_path):
        provider = "repro.experiments.common"
        expected = (provider_closure(provider), provider_version(provider))
        good = _good_memo(tmp_path)
        _memo(tmp_path).write_bytes(_damaged(good, damage))
        served = (provider_closure(provider, tmp_path),
                  provider_version(provider, tmp_path))
        assert served == expected
        assert _memo(tmp_path).read_bytes() == good

    def test_a_poisoned_memo_under_the_right_key_is_served(
            self, fresh_caches, tmp_path):
        """The converse, showing the test above can fail: what the memo
        says under a matching key is what the engine digests."""
        provider = "repro.experiments.common"
        good = _good_memo(tmp_path)
        _memo(tmp_path).write_bytes(_poisoned(good))
        assert provider_closure(provider, tmp_path) == (provider,)

    def test_failed_write_changes_no_key_and_raises_nothing(
            self, fresh_caches, tmp_path, monkeypatch):
        cells = _captured_cells(["fig10", "Fib-P", "ProdL-G"])
        expected = [job.key() for job in cells]
        invalidate_fingerprint_caches()
        # The memo is written only if the sources hash the same after the
        # graph build as before it; freezing the key at the value the
        # sources have now attempts the write even if a source file
        # changes while this test runs.
        frozen = closure_memo_key(
            "repro", jobmod._package_files(jobmod._package_root("repro")))
        monkeypatch.setattr(jobmod, "closure_memo_key",
                            lambda package, files: frozen)
        refused = []

        def refuse(src, dst):
            refused.append(dst)
            raise OSError(28, "No space left on device", str(dst))

        monkeypatch.setattr(jobmod.os, "replace", refuse)
        root = tmp_path / "cache"
        assert [job.key(cache_root=root) for job in cells] == expected
        assert refused == [_memo(root)]
        assert list((root / CLOSURE_MEMO_DIR).iterdir()) == []

    def test_a_killed_writers_temp_file_is_reaped_by_the_cache(
            self, fresh_caches, tmp_path, monkeypatch):
        """The memo's temp file is named like the cache's own, so a
        writer killed before its rename leaves an orphan that opening
        the cache removes."""
        renamed = []

        def killed(src, dst):
            renamed.append(Path(src))
            raise OSError(4, "Interrupted system call", str(dst))

        monkeypatch.setattr(jobmod.os, "replace", killed)
        provider_closure("repro.experiments.common", tmp_path)
        [temp] = renamed
        assert temp.parent == tmp_path / CLOSURE_MEMO_DIR
        assert _tmp_pid(temp) == os.getpid()
        orphan = temp.with_name(temp.name.replace(
            f".{os.getpid()}.", f".{dead_pid()}."))
        orphan.write_text("half a memo")
        ResultCache(tmp_path).open().close()
        assert not orphan.exists()

    def test_unwritable_root_changes_no_key(self, fresh_caches, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache root should be")
        job = _captured_cells(["fig10", "Fib-P"])[0]
        expected = job.key()
        invalidate_fingerprint_caches()
        assert job.key(cache_root=blocker) == expected


def _key(package: str, root: Path) -> str:
    return closure_memo_key(package, jobmod._package_files(root))


class TestMemoKey:
    def test_analyzer_source_is_part_of_the_key(self, monkeypatch,
                                                tmp_path):
        root = jobmod._package_root("repro")
        before = _key("repro", root)
        analyzer = jobmod._provider_source("repro.lint.graph")
        edited = tmp_path / "graph.py"
        edited.write_bytes(analyzer.read_bytes() + b"\n# edited\n")
        original = jobmod._provider_source
        monkeypatch.setattr(
            jobmod, "_provider_source",
            lambda m: edited if m == "repro.lint.graph" else original(m))
        assert _key("repro", root) != before

    def test_python_minor_version_is_part_of_the_key(self, monkeypatch):
        root = jobmod._package_root("repro")
        before = _key("repro", root)
        major, minor = sys.version_info[:2]
        monkeypatch.setattr(jobmod, "sys", types.SimpleNamespace(
            version_info=(major, minor + 1, 0)))
        assert _key("repro", root) != before

    def test_package_name_is_part_of_the_key(self):
        root = jobmod._package_root("repro")
        assert _key("repro", root) != _key("other", root)

    def test_rename_with_the_same_bytes_changes_the_key(self, synthetic):
        root = synthetic / "provpkg"
        before = _key("provpkg", root)
        (root / "helper.py").rename(root / "helpers.py")
        assert _key("provpkg", root) != before

    def test_file_boundaries_are_part_of_the_key(self, tmp_path):
        """One file holding another's path and bytes never hashes like
        the two files."""
        one = _write_tree(tmp_path / "one" / "pkg",
                          {"a.py": "X\0b.py\0Y"})
        two = _write_tree(tmp_path / "two" / "pkg",
                          {"a.py": "X", "b.py": "Y"})
        assert _key("pkg", one) != _key("pkg", two)

    def test_content_edit_changes_the_key(self, synthetic):
        root = synthetic / "provpkg"
        before = _key("provpkg", root)
        helper = root / "helper.py"
        helper.write_text(helper.read_text() + "\nEXTRA = 1\n")
        assert _key("provpkg", root) != before


_SWEEP_SCRIPT = """
import sys
from pathlib import Path
import tests.engine.fake_provider  # registers resilience_echo
from repro import engine
from repro.engine.job import Job
from repro.lint.graph import ProjectGraph

root = Path(sys.argv[1])
if sys.argv[2] == "no-graph":
    def refuse(*args, **kwargs):
        raise RuntimeError("the package graph was built")
    ProjectGraph.from_package = classmethod(refuse)
job = Job.make("Fib-P", None, {"n": 1}, "resilience_echo")
with engine.configure(cache_dir=root) as ctx:
    [outcome] = engine.sweep_outcomes([job])
keys = sorted(path.stem for path in root.rglob("*.pkl"))
print(outcome.from_cache, ",".join(keys))
"""


class TestMemoFires:
    """The warm path's analogue of the simulator's fast-path test: a
    fresh interpreter keying against a warm memo never builds the graph."""

    def test_second_process_keys_without_the_graph(self, tmp_path):
        root = tmp_path / "cache"
        hit, key = _fresh_interpreter(_SWEEP_SCRIPT, str(root),
                                      "graph").split()
        assert hit == "False" and len(key) == 64
        assert _memo(root).is_file()
        again = _fresh_interpreter(_SWEEP_SCRIPT, str(root), "no-graph")
        assert again.split() == ["True", key]

    def test_without_a_memo_the_patched_graph_is_needed(self, tmp_path):
        with pytest.raises(subprocess.CalledProcessError) as excinfo:
            _fresh_interpreter(_SWEEP_SCRIPT, str(tmp_path / "empty"),
                               "no-graph")
        assert "the package graph was built" in excinfo.value.stderr

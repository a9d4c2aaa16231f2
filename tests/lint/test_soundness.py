"""Tests for worker safety (REPRO010) and the stale-cache hazard.

The stale-cache acceptance test: a provider package whose builder
imports a helper module *indirectly*; editing the helper changes the
provider's cache key, invalidating exactly that provider's cached cells
while a control provider's cells stay warm.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.cache import ResultCache
from repro.engine.job import Job, invalidate_fingerprint_caches
from repro.lint import soundness
from repro.lint.graph import ProjectGraph


def _write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


PROVIDER_FILES = {
    "__init__.py": "",
    "provider.py": ("from provpkg import helper\n"
                    "def build(cfg):\n"
                    "    return helper.scale(cfg)\n"),
    "helper.py": ("SCALE = 2\n"
                  "def scale(cfg):\n"
                  "    return cfg * SCALE\n"),
}

CONTROL_FILES = {
    "__init__.py": "",
    "provider.py": "def build(cfg):\n    return cfg\n",
}


@pytest.fixture()
def provider_packages(tmp_path, monkeypatch):
    """Two importable provider packages on sys.path; caches reset."""
    _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
    _write_tree(tmp_path / "ctrlpkg", CONTROL_FILES)
    monkeypatch.syspath_prepend(str(tmp_path))
    invalidate_fingerprint_caches()
    yield tmp_path
    invalidate_fingerprint_caches()


class TestStaleCacheHazard:
    """Acceptance: editing a helper module imported (not directly named)
    by a provider invalidates exactly that provider's cells."""

    def test_helper_edit_changes_the_key(self, provider_packages):
        job = Job.make("fnA", None, {"n": 1}, "hot",
                       provider="provpkg.provider")
        before = job.key()
        helper = provider_packages / "provpkg" / "helper.py"
        helper.write_text(helper.read_text().replace("SCALE = 2",
                                                     "SCALE = 3"))
        invalidate_fingerprint_caches()
        assert job.key() != before

    def test_helper_edit_invalidates_exactly_one_provider(
            self, provider_packages, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        edited = Job.make("fnA", None, {"n": 1}, "hot",
                          provider="provpkg.provider")
        control = Job.make("fnA", None, {"n": 1}, "hot",
                           provider="ctrlpkg.provider")
        key_edited, key_control = edited.key(), control.key()
        cache.put(key_edited, {"result": 1})
        cache.put(key_control, {"result": 2})

        helper = provider_packages / "provpkg" / "helper.py"
        helper.write_text(helper.read_text() + "\nEXTRA = 1\n")
        invalidate_fingerprint_caches()

        # The edited provider addresses a different cell now...
        assert edited.key() != key_edited
        hit, _ = cache.get(edited.key())
        assert not hit
        # ...while the control provider's cell stays warm.
        assert control.key() == key_control
        hit, value = cache.get(control.key())
        assert hit and value == {"result": 2}

    @pytest.mark.parametrize("edit", [
        "helper-edit", "provider-edit", "new-module", "deleted-module",
        "renamed-module", "new-subpackage",
    ])
    def test_an_edit_moves_only_its_own_packages_key(
            self, edit, provider_packages):
        """Across top-level packages invalidation stays exact: whatever
        the kind of edit under ``provpkg``, its provider's key moves and
        ``ctrlpkg``'s does not."""
        edited = Job.make("fnA", None, {"n": 1}, "hot",
                          provider="provpkg.provider")
        control = Job.make("fnA", None, {"n": 1}, "hot",
                           provider="ctrlpkg.provider")
        key_edited, key_control = edited.key(), control.key()
        pkg = provider_packages / "provpkg"
        if edit == "helper-edit":
            (pkg / "helper.py").write_text("SCALE = 3\n")
        elif edit == "provider-edit":
            (pkg / "provider.py").write_text(
                "def build(cfg):\n    return cfg\n")
        elif edit == "new-module":
            (pkg / "render.py").write_text("")
        elif edit == "deleted-module":
            (pkg / "helper.py").unlink()
        elif edit == "renamed-module":
            (pkg / "helper.py").rename(pkg / "helpers.py")
        else:
            _write_tree(pkg, {"sub/__init__.py": ""})
        invalidate_fingerprint_caches()
        assert edited.key() != key_edited
        assert control.key() == key_control


class TestRepro010BoundaryClasses:
    def _graph(self, tmp_path, class_body):
        root = _write_tree(tmp_path / "bpkg", {
            "__init__.py": "",
            "mod.py": class_body,
        })
        return ProjectGraph.from_package(root, "bpkg")

    def test_lambda_class_attribute_fires(self, tmp_path):
        graph = self._graph(tmp_path, (
            "class Carrier:\n"
            "    transform = lambda self, x: x + 1\n"))
        findings = soundness.check_worker_safety(
            graph, boundary=("bpkg.mod:Carrier",), entries=[])
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO010"
        assert "lambda" in findings[0].message
        assert "pickle boundary" in findings[0].message

    def test_lock_instance_attribute_fires(self, tmp_path):
        graph = self._graph(tmp_path, (
            "import threading\n"
            "class Carrier:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"))
        findings = soundness.check_worker_safety(
            graph, boundary=("bpkg.mod:Carrier",), entries=[])
        assert len(findings) == 1
        assert "threading.Lock" in findings[0].message

    def test_open_handle_instance_attribute_fires(self, tmp_path):
        graph = self._graph(tmp_path, (
            "class Carrier:\n"
            "    def __init__(self, path):\n"
            "        self.fh = open(path)\n"))
        findings = soundness.check_worker_safety(
            graph, boundary=("bpkg.mod:Carrier",), entries=[])
        assert len(findings) == 1
        assert "open()" in findings[0].message

    def test_plain_dataclass_is_clean(self, tmp_path):
        graph = self._graph(tmp_path, (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Carrier:\n"
            "    name: str = 'x'\n"
            "    weights = [1, 2, 3]\n"
            "    def __init__(self):\n"
            "        self.total = sum(self.weights)\n"))
        assert soundness.check_worker_safety(
            graph, boundary=("bpkg.mod:Carrier",), entries=[]) == []

    def test_unknown_boundary_spec_is_ignored(self, tmp_path):
        graph = self._graph(tmp_path, "class Carrier:\n    pass\n")
        assert soundness.check_worker_safety(
            graph, boundary=("bpkg.mod:Ghost", "bpkg.gone:Thing"),
            entries=[]) == []


class TestRepro010ModuleState:
    FILES = {
        "__init__.py": "",
        "state.py": ("REGISTRY = {}\n"
                     "TRACE = []\n"
                     "def register(name, value):\n"
                     "    REGISTRY[name] = value\n"),
        "work.py": ("from bpkg import state\n"
                    "from bpkg.state import register\n"
                    "def entry(job):\n"
                    "    return simulate(job)\n"
                    "def simulate(job):\n"
                    "    state.TRACE.append(job)\n"
                    "    return register('last', job)\n"
                    "def shadowed(job):\n"
                    "    TRACE = []\n"
                    "    TRACE.append(job)\n"
                    "    return TRACE\n"),
    }

    def _graph(self, tmp_path):
        root = _write_tree(tmp_path / "bpkg", self.FILES)
        return ProjectGraph.from_package(root, "bpkg")

    def test_worker_reachable_mutations_fire(self, tmp_path):
        findings = soundness.check_worker_safety(
            self._graph(tmp_path), boundary=(), entries=["work:entry"])
        assert len(findings) == 2
        messages = " ".join(v.message for v in findings)
        assert "bpkg.state.TRACE" in messages  # alias.NAME cross-module
        assert "REGISTRY" in messages          # own-module, two hops in
        assert "silently diverge" in messages

    def test_unreachable_mutations_are_silent(self, tmp_path):
        # `shadowed` is never called from the entry; and even as an
        # entry itself, its TRACE is a local, not module state.
        assert soundness.check_worker_safety(
            self._graph(tmp_path), boundary=(),
            entries=["work:shadowed"]) == []

    def test_global_declaration_unshadows(self, tmp_path):
        root = _write_tree(tmp_path / "gpkg", {
            "__init__.py": "",
            "mod.py": ("CACHE = {}\n"
                       "def entry(k, v):\n"
                       "    global CACHE\n"
                       "    CACHE = {}\n"
                       "    CACHE[k] = v\n"),
        })
        graph = ProjectGraph.from_package(root, "gpkg")
        findings = soundness.check_worker_safety(
            graph, boundary=(), entries=["mod:entry"])
        assert len(findings) == 1
        assert "CACHE" in findings[0].message

    def test_import_time_registration_is_silent(self, tmp_path):
        # Module-level registration (decorators running at import) is
        # fine: every worker replays imports identically.
        root = _write_tree(tmp_path / "ipkg", {
            "__init__.py": "",
            "mod.py": ("CONFIGS = {}\n"
                       "def register_config(name):\n"
                       "    def wrap(fn):\n"
                       "        CONFIGS[name] = fn\n"
                       "        return fn\n"
                       "    return wrap\n"
                       "@register_config('hot')\n"
                       "def build(cfg):\n"
                       "    return cfg\n"),
        })
        graph = ProjectGraph.from_package(root, "ipkg")
        # build() is an entry (decorator-marked) but register_config is
        # only called at import time, so no mutation is worker-reachable.
        assert soundness.check_worker_safety(
            graph, boundary=(), entries=[]) == []


class TestRealTreeWorkerSafety:
    def test_real_tree_is_clean(self):
        src_root = Path(__file__).resolve().parents[2] / "src" / "repro"
        graph = ProjectGraph.from_package(src_root, "repro")
        assert soundness.check_worker_safety(graph) == []

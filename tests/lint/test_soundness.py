"""Tests for cache-key soundness (REPRO009) and worker safety (REPRO010).

The centerpiece is the stale-cache acceptance test: a provider package
whose builder imports a helper module *indirectly*; editing the helper
(a) trips REPRO009 when the closure digest is bypassed, and (b) changes
the fixed ``provider_version()``, invalidating exactly that provider's
cached cells while a control provider's cells stay warm.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.cache import ResultCache
from repro.engine.job import (
    Job,
    invalidate_fingerprint_caches,
    provider_closure,
    provider_version,
)
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


class TestRepro009Synthetic:
    def _graph(self, tmp_path):
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        return ProjectGraph.from_package(root, "provpkg")

    def test_bypassed_digest_fires(self, tmp_path):
        graph = self._graph(tmp_path)
        findings = soundness.check_cache_soundness(
            graph, providers=["provpkg.provider"], covered_prefixes=(),
            digested=lambda p: (p,))  # digest only the provider file
        assert findings, "narrowed digest must trip REPRO009"
        assert all(v.rule_id == "REPRO009" for v in findings)
        messages = " ".join(v.message for v in findings)
        assert "provpkg.helper" in messages
        assert "stale" in messages

    def test_full_closure_digest_is_sound(self, tmp_path):
        graph = self._graph(tmp_path)
        findings = soundness.check_cache_soundness(
            graph, providers=["provpkg.provider"], covered_prefixes=(),
            digested=graph.closure)
        assert findings == []

    def test_covered_prefixes_substitute_for_digest(self, tmp_path):
        graph = self._graph(tmp_path)
        findings = soundness.check_cache_soundness(
            graph, providers=["provpkg.provider"],
            covered_prefixes=("provpkg",), digested=lambda p: ())
        assert findings == []

    def test_unknown_provider_is_skipped(self, tmp_path):
        graph = self._graph(tmp_path)
        assert soundness.check_cache_soundness(
            graph, providers=["provpkg.missing"], covered_prefixes=(),
            digested=lambda p: (p,)) == []

    def test_provider_discovery_via_decorator(self, tmp_path):
        root = _write_tree(tmp_path / "dpkg", {
            "__init__.py": "",
            "registry.py": ("def register_config(name):\n"
                            "    def wrap(fn):\n"
                            "        return fn\n"
                            "    return wrap\n"),
            "exp.py": ("from dpkg.registry import register_config\n"
                       "@register_config('x')\n"
                       "def build_x(cfg):\n"
                       "    return cfg\n"),
        })
        graph = ProjectGraph.from_package(root, "dpkg")
        assert soundness.discover_providers(graph) == ("dpkg.exp",)


class TestRepro009EngineCrossValidation:
    """Against the real tree, the default run audits the real engine."""

    @pytest.fixture(scope="class")
    def real_graph(self):
        src_root = Path(__file__).resolve().parents[2] / "src" / "repro"
        return ProjectGraph.from_package(src_root, "repro")

    def test_real_engine_digests_full_closures(self, real_graph):
        assert soundness.check_cache_soundness(real_graph) == []

    def test_real_providers_are_discovered(self, real_graph):
        providers = soundness.discover_providers(real_graph)
        assert "repro.experiments.common" in providers

    def test_bypassing_the_real_digest_fires(self, real_graph):
        # Same graph, same providers -- but pretend provider_version()
        # digested only the provider's own file.  The experiments
        # helpers in each builder's closure escape coverage.
        findings = soundness.check_cache_soundness(
            real_graph, digested=lambda p: (p,))
        assert findings, ("the real providers import helpers outside the "
                          "code_version() subtrees; a single-file digest "
                          "must be flagged")
        assert all(v.rule_id == "REPRO009" for v in findings)


class TestStaleCacheHazard:
    """Acceptance: editing a helper module imported (not directly named)
    by a provider invalidates exactly that provider's cells."""

    def test_closure_includes_indirect_helper(self, provider_packages):
        closure = provider_closure("provpkg.provider")
        assert closure == ("provpkg", "provpkg.helper", "provpkg.provider")

    def test_helper_edit_changes_provider_version(self, provider_packages):
        before = provider_version("provpkg.provider")
        helper = provider_packages / "provpkg" / "helper.py"
        helper.write_text(helper.read_text().replace("SCALE = 2",
                                                     "SCALE = 3"))
        invalidate_fingerprint_caches()
        after = provider_version("provpkg.provider")
        assert before != after

    @staticmethod
    def _edit_invalidates_exactly_one_provider(packages, cache, memo):
        root = cache.root if memo else None
        edited = Job.make("fnA", None, {"n": 1}, "hot",
                          provider="provpkg.provider")
        control = Job.make("fnA", None, {"n": 1}, "hot",
                           provider="ctrlpkg.provider")
        key_edited, key_control = edited.key(root), control.key(root)
        cache.put(key_edited, {"result": 1})
        cache.put(key_control, {"result": 2})

        helper = packages / "provpkg" / "helper.py"
        helper.write_text(helper.read_text() + "\nEXTRA = 1\n")
        invalidate_fingerprint_caches()

        # The edited provider addresses a different cell now...
        assert edited.key(root) != key_edited
        hit, _ = cache.get(edited.key(root))
        assert not hit
        # ...while the control provider's cell stays warm.
        assert control.key(root) == key_control
        hit, value = cache.get(control.key(root))
        assert hit and value == {"result": 2}

    def test_helper_edit_invalidates_exactly_one_provider(
            self, provider_packages, tmp_path):
        self._edit_invalidates_exactly_one_provider(
            provider_packages, ResultCache(tmp_path / "cache"), memo=False)

    def test_helper_edit_invalidates_exactly_one_provider_with_warm_memo(
            self, provider_packages, tmp_path):
        """The same with both packages' closures memoized under the cache
        root before the edit: the edited package's memo goes stale and is
        rebuilt, the control's is served as written."""
        cache = ResultCache(tmp_path / "cache")
        for package in ("provpkg", "ctrlpkg"):
            provider_closure(f"{package}.provider", cache.root)
        invalidate_fingerprint_caches()
        memos = {path.name: path.read_bytes()
                 for path in (cache.root / "closures").iterdir()}
        assert sorted(memos) == ["ctrlpkg.json", "provpkg.json"]
        self._edit_invalidates_exactly_one_provider(
            provider_packages, cache, memo=True)
        closures = cache.root / "closures"
        assert (closures / "ctrlpkg.json").read_bytes() == memos["ctrlpkg.json"]
        assert (closures / "provpkg.json").read_bytes() != memos["provpkg.json"]

    def test_lint_catches_the_same_hazard_when_digest_is_bypassed(
            self, provider_packages):
        # The lint rule and the engine agree: what the fixed engine
        # digests is exactly what the analyzer demands.
        graph = ProjectGraph.from_package(
            provider_packages / "provpkg", "provpkg")
        bypassed = soundness.check_cache_soundness(
            graph, providers=["provpkg.provider"], covered_prefixes=(),
            digested=lambda p: (p,))
        assert any("provpkg.helper" in v.message for v in bypassed)
        sound = soundness.check_cache_soundness(
            graph, providers=["provpkg.provider"], covered_prefixes=(),
            digested=provider_closure)
        assert sound == []


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

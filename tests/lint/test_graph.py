"""Fixture tests for the whole-program import and call graph.

Synthetic module trees exercise the resolution corners the analyzer must
get right for its call edges to be trustworthy: relative imports at
every level, lazy imports, re-exports through ``__init__``, and stdlib
names shadowed by project modules.  The property battery builds seeded
random packages and checks the call edges and re-export resolution
against what the generator wrote.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint.graph import ImportBinding, ProjectGraph


def _write_package(root: Path, files: dict) -> Path:
    """Materialize ``{relative_path: source}`` under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def _graph(tmp_path: Path, files: dict, package: str = "pkg"
           ) -> ProjectGraph:
    root = _write_package(tmp_path / package, files)
    return ProjectGraph.from_package(root, package)


class TestDiscovery:
    def test_modules_named_by_dotted_path(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "",
            "sub/__init__.py": "",
            "sub/b.py": "",
        })
        assert set(graph.modules) == {"pkg", "pkg.a", "pkg.sub", "pkg.sub.b"}

    def test_unparsable_file_is_skipped_not_fatal(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "ok.py": "X = 1\n",
            "broken.py": "def f(:\n",
        })
        assert "pkg.ok" in graph.modules
        assert "pkg.broken" not in graph.modules

    def test_missing_root_is_typed_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProjectGraph.from_package(tmp_path / "nope", "nope")


class TestImportResolution:
    def test_absolute_import(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "import pkg.b\ndef go():\n    return pkg.b.f()\n",
            "b.py": "def f():\n    return 1\n",
        })
        assert graph.modules["pkg.a"].bindings["pkg"] == ImportBinding("pkg")
        assert "pkg.b:f" in graph.functions()["pkg.a:go"].calls

    def test_relative_import_single_dot(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "sub/__init__.py": "",
            "sub/a.py": "from . import b\ndef go():\n    return b.f()\n",
            "sub/b.py": "def f():\n    return 1\n",
        })
        assert graph.modules["pkg.sub.a"].bindings["b"] == ImportBinding(
            "pkg.sub", "b")
        assert "pkg.sub.b:f" in graph.functions()["pkg.sub.a:go"].calls

    def test_relative_import_two_dots(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "other.py": "THING = 1\n",
            "sub/__init__.py": "",
            "sub/a.py": "from ..other import THING\n",
        })
        assert graph.modules["pkg.sub.a"].bindings["THING"] == (
            ImportBinding("pkg.other", "THING"))

    def test_relative_import_from_package_init(self, tmp_path):
        # An __init__'s `from . import x` anchors at the package itself.
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "sub/__init__.py": "from . import a\n",
            "sub/a.py": "",
        })
        assert graph.modules["pkg.sub"].bindings["a"] == ImportBinding(
            "pkg.sub", "a")
        assert graph.resolve_export("pkg.sub", "a") == ("pkg.sub.a", None)

    def test_external_imports_are_bound(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "import os\nfrom collections import deque\n",
        })
        node = graph.modules["pkg.a"]
        assert node.bindings["os"] == ImportBinding("os")
        assert node.bindings["deque"] == ImportBinding("collections",
                                                       "deque")

    def test_lazy_function_level_import_still_counts(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "def f():\n    from pkg import b\n    return b\n",
            "b.py": "",
        })
        assert graph.modules["pkg.a"].bindings["b"] == ImportBinding(
            "pkg", "b")


class TestShadowedStdlibNames:
    def test_project_json_module_vs_stdlib_json(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "json.py": "def dumps(x):\n    return str(x)\n",
            "absolute.py": "import json\n",       # stdlib: absolute import
            "relative.py": "from . import json\n",  # project module
            "explicit.py": "from pkg import json\n",
        })
        absolute = graph.modules["pkg.absolute"]
        assert absolute.bindings["json"] == ImportBinding("json")
        for name in ("pkg.relative", "pkg.explicit"):
            assert graph.modules[name].bindings["json"] == ImportBinding(
                "pkg", "json")
        assert graph.resolve_export("pkg", "json") == ("pkg.json", None)

    def test_shadowed_module_resolves_calls_internally(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "json.py": "def dumps(x):\n    return str(x)\n",
            "user.py": ("from pkg import json\n"
                        "def emit(x):\n    return json.dumps(x)\n"),
        })
        info = graph.functions()["pkg.user:emit"]
        assert "pkg.json:dumps" in info.calls


class TestReexports:
    FILES = {
        "__init__.py": "from pkg.impl import Thing, make_thing\n",
        "impl.py": ("class Thing:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "def make_thing():\n"
                    "    return Thing()\n"),
        "user.py": ("from pkg import Thing, make_thing\n"
                    "def build():\n"
                    "    t = Thing()\n"
                    "    return make_thing()\n"),
    }

    def test_resolve_export_follows_init(self, tmp_path):
        graph = _graph(tmp_path, self.FILES)
        assert graph.resolve_export("pkg", "Thing") == ("pkg.impl", "Thing")
        assert graph.resolve_export("pkg", "make_thing") == (
            "pkg.impl", "make_thing")

    def test_resolve_export_submodule(self, tmp_path):
        graph = _graph(tmp_path, self.FILES)
        assert graph.resolve_export("pkg", "impl") == ("pkg.impl", None)

    def test_calls_resolve_through_reexport(self, tmp_path):
        graph = _graph(tmp_path, self.FILES)
        info = graph.functions()["pkg.user:build"]
        assert "pkg.impl:make_thing" in info.calls
        assert "pkg.impl:Thing" in info.calls

    def test_chained_reexport(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "from pkg.middle import deep_fn\n",
            "middle.py": "from pkg.deep import deep_fn\n",
            "deep.py": "def deep_fn():\n    return 1\n",
            "user.py": ("from pkg import deep_fn\n"
                        "def go():\n    return deep_fn()\n"),
        })
        assert graph.resolve_export("pkg", "deep_fn") == (
            "pkg.deep", "deep_fn")
        assert "pkg.deep:deep_fn" in graph.functions()["pkg.user:go"].calls

    def test_reexport_cycle_terminates(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "from pkg.b import ghost\n",
            "b.py": "from pkg.a import ghost\n",
        })
        assert graph.resolve_export("pkg.a", "ghost") is None


class TestModuleImports:
    def test_importing_a_submodule_binds_the_top_package(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": ("import pkg.sub.deep\n"
                     "def go():\n    return pkg.sub.deep.f()\n"),
            "sub/__init__.py": "",
            "sub/deep.py": "def f():\n    return 1\n",
        })
        assert graph.modules["pkg.a"].bindings == {"pkg": ImportBinding("pkg")}
        assert graph.functions()["pkg.a:go"].calls == {"pkg.sub.deep:f"}

    def test_import_as_binds_the_full_module(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": ("import pkg.sub.deep as d\nimport os.path as osp\n"
                     "def go():\n    return d.f(), osp.join('x')\n"),
            "sub/__init__.py": "",
            "sub/deep.py": "def f():\n    return 1\n",
        })
        node = graph.modules["pkg.a"]
        assert node.bindings["d"] == ImportBinding("pkg.sub.deep")
        assert node.bindings["osp"] == ImportBinding("os.path")
        info = graph.functions()["pkg.a:go"]
        assert info.calls == {"pkg.sub.deep:f"}
        assert [call[0] for call in info.raw_calls] == ["os.path.join"]

    def test_star_import_binds_nothing(self, tmp_path):
        """Names a ``*`` import brings in cannot be pinned down, so their
        calls stay unresolved rather than guessed."""
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "from pkg.b import *\ndef go():\n    return f()\n",
            "b.py": "def f():\n    return 1\n",
        })
        assert graph.modules["pkg.a"].bindings == {}
        info = graph.functions()["pkg.a:go"]
        assert info.calls == set()
        assert [call[0] for call in info.raw_calls] == ["f"]

    def test_relative_import_above_the_top_is_dropped(self, tmp_path):
        graph = _graph(tmp_path, {
            "__init__.py": "",
            "a.py": "from .. import x\nfrom ...y import z\n",
        })
        node = graph.modules["pkg.a"]
        assert node.bindings == {}


def _edges(graph: ProjectGraph) -> dict:
    return {fid: (sorted(info.calls), sorted(info.raw_calls))
            for fid, info in graph.functions().items()}


class TestCallGraph:
    CYCLE = {
        "__init__.py": "",
        "a.py": "from pkg import b\ndef f():\n    return b.f()\n",
        "b.py": "from pkg import c\ndef f():\n    return c.f()\n",
        "c.py": "from pkg import a\ndef f():\n    return a.f()\n",
    }

    def test_call_cycle_resolves_every_edge(self, tmp_path):
        functions = _graph(tmp_path, self.CYCLE).functions()
        assert functions["pkg.a:f"].calls == {"pkg.b:f"}
        assert functions["pkg.b:f"].calls == {"pkg.c:f"}
        assert functions["pkg.c:f"].calls == {"pkg.a:f"}

    def test_stable_across_rebuilds(self, tmp_path):
        root = _write_package(tmp_path / "pkg",
                              TestCallGraphProperties._random_tree(5))
        first = ProjectGraph.from_package(root, "pkg")
        second = ProjectGraph.from_package(root, "pkg")
        assert _edges(first) == _edges(second)


class TestCallGraphProperties:
    """Seeded-random packages whose generator knows every call edge."""

    #: How module ``m{i}`` may import ``m{j}``, and the call it makes.
    STYLES = {
        "from-package": ("from pkg import m{j}", "m{j}.f()"),
        "from-module": ("from pkg.m{j} import f as f{j}", "f{j}()"),
        "relative": ("from . import m{j}", "m{j}.f()"),
        "absolute": ("import pkg.m{j}", "pkg.m{j}.f()"),
        "alias": ("import pkg.m{j} as a{j}", "a{j}.f()"),
    }

    @staticmethod
    def _random_tree(seed: int, n: int = 10, edges=None) -> dict:
        rng = random.Random(seed)
        files = {"__init__.py": ""}
        styles = sorted(TestCallGraphProperties.STYLES)
        for i in range(n):
            deps = [j for j in range(n) if j != i and rng.random() < 0.3]
            top, lazy, calls = ["import os"], [], ["_g()", "os.getcwd()"]
            for j in deps:
                imp, call = TestCallGraphProperties.STYLES[rng.choice(styles)]
                (lazy if rng.random() < 0.3 else top).append(
                    imp.format(j=j))
                calls.append(call.format(j=j))
            body = "".join(f"    {line}\n" for line in lazy + calls)
            files[f"m{i}.py"] = ("\n".join(top) + "\n"
                                 "def _g():\n    return 0\n"
                                 "def f():\n" + body)
            if edges is not None:
                edges[f"pkg.m{i}:f"] = ({f"pkg.m{j}:f" for j in deps}
                                        | {f"pkg.m{i}:_g"})
        return files

    @pytest.mark.parametrize("seed", [1, 7, 42, 1337])
    def test_call_edges_match_the_generator(self, tmp_path, seed):
        want: dict = {}
        graph = _graph(tmp_path, self._random_tree(seed, edges=want))
        functions = graph.functions()
        for fid, callees in want.items():
            info = functions[fid]
            assert info.calls == callees, f"{fid} (seed={seed})"
            assert [call[0] for call in info.raw_calls] == ["os.getcwd"]

    @pytest.mark.parametrize("seed", [3, 99])
    def test_reexport_chains_resolve_to_the_definition(self, tmp_path,
                                                       seed):
        """Names re-exported through relay modules and the package
        ``__init__`` resolve to their defining module, and calls through
        the package link to the definition."""
        rng = random.Random(seed)
        n = 8
        files = {f"m{i}.py": f"def fn{i}():\n    return {i}\n"
                 for i in range(n)}
        init, user = [], []
        for i in range(n):
            source = f"pkg.m{i}"
            for hop in range(rng.randrange(3)):
                relay = f"relay{i}_{hop}"
                files[f"{relay}.py"] = f"from {source} import fn{i}\n"
                source = f"pkg.{relay}"
            init.append(f"from {source} import fn{i}\n")
            user.append(f"    fn{i}()\n")
        files["__init__.py"] = "".join(init)
        files["user.py"] = ("from pkg import " + ", ".join(
            f"fn{i}" for i in range(n)) + "\ndef go():\n" + "".join(user))
        graph = _graph(tmp_path, files)
        for i in range(n):
            assert graph.resolve_export("pkg", f"fn{i}") == (
                f"pkg.m{i}", f"fn{i}")
        assert graph.functions()["pkg.user:go"].calls == {
            f"pkg.m{i}:fn{i}" for i in range(n)}

"""Job fingerprinting: stable addresses, sensitive to every ingredient."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.engine.job as jobmod
from repro.engine import (
    Job,
    canonicalize,
    fingerprint,
    invalidate_fingerprint_caches,
    source_digest,
)
from repro.errors import ConfigurationError
from repro.experiments.common import RunConfig
from repro.sim.params import skylake
from repro.workloads.suite import get_profile
from tests.lint.test_soundness import (CONTROL_FILES, PROVIDER_FILES,
                                       _write_tree)

CFG = RunConfig(invocations=2, warmup=1, instruction_scale=0.1)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def fresh_caches():
    invalidate_fingerprint_caches()
    yield
    invalidate_fingerprint_caches()


def _job(**overrides):
    base = dict(profile=get_profile("Auth-G"), machine=skylake(),
                cfg=CFG, config="baseline")
    base.update(overrides)
    return Job.make(**base)


class TestKeyStability:
    def test_same_inputs_same_key(self):
        assert _job().key() == _job().key()

    def test_key_is_hex_digest(self):
        key = _job().key()
        assert len(key) == 64
        int(key, 16)

    def test_stable_across_processes(self):
        """The content address must not depend on interpreter state
        (id(), hash randomization, dict order) -- a fresh process must
        derive the same key, or the on-disk cache is per-process."""
        code = (
            "from repro.engine import Job\n"
            "from repro.experiments.common import RunConfig\n"
            "from repro.sim.params import skylake\n"
            "from repro.workloads.suite import get_profile\n"
            "cfg = RunConfig(invocations=2, warmup=1, instruction_scale=0.1)\n"
            "job = Job.make(get_profile('Auth-G'), skylake(), cfg,"
            " 'baseline')\n"
            "print(job.key())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == _job().key()


class TestKeySensitivity:
    def test_profile_changes_key(self):
        assert _job().key() != _job(profile=get_profile("Email-P")).key()

    def test_machine_changes_key(self):
        from repro.sim.params import broadwell
        assert _job().key() != _job(machine=broadwell()).key()

    def test_cfg_changes_key(self):
        assert _job().key() != _job(cfg=CFG.replace(seed=7)).key()

    def test_config_name_changes_key(self):
        assert _job().key() != _job(config="jukebox").key()

    def test_opts_change_key(self):
        assert _job().key() != _job(with_jukebox=True).key()

    def test_opts_order_is_irrelevant(self):
        a = _job(alpha=1, beta=2)
        b = _job(beta=2, alpha=1)
        assert a.key() == b.key()

    def test_provider_changes_key(self):
        """Two jobs differing only in provider must not share a cache
        entry: their builders are different code."""
        a = _job()
        b = _job(provider="repro.experiments.fig01_iat")
        assert a.key() != b.key()

    def test_backend_changes_key(self):
        """Backends are bit-identical *by contract*, but the contract is
        enforced, not assumed: a columnar result must never satisfy a
        scalar request from the cache (or vice versa), or a backend bug
        would be unfalsifiable through the engine."""
        columnar = _job(cfg=CFG.replace(backend="columnar"))
        scalar = _job(cfg=CFG.replace(backend="scalar"))
        assert columnar.key() != scalar.key()

    def test_schema_v2_guards_pre_backend_caches(self):
        """Stale-cache regression: RunConfig grew ``backend`` in schema
        v2, so any result memoized under schema v1 (whose canonical cfg
        lacked the field) must be unreachable from current keys."""
        from repro.engine.job import SCHEMA_VERSION, fingerprint

        assert SCHEMA_VERSION == 2
        # A v1-era canonical cfg (no backend field) must not collide with
        # today's encoding of the same logical configuration.
        v2 = canonicalize(CFG)
        v1 = {k: v for k, v in v2.items() if k != "backend"}
        assert fingerprint(v1) != fingerprint(v2)


class TestCanonicalize:
    def test_dataclass_tagged_with_classname(self):
        canon = canonicalize(CFG)
        assert canon["__dataclass__"] == "RunConfig"
        assert canon["seed"] == CFG.seed

    def test_rejects_unpicklable_values(self):
        with pytest.raises(ConfigurationError):
            canonicalize(lambda: None)

    def test_fingerprint_of_equal_dicts(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_list_and_tuple_do_not_alias(self):
        assert fingerprint([1, 2]) != fingerprint((1, 2))
        assert fingerprint({"a": [1]}) != fingerprint({"a": (1,)})

    def test_rejects_non_string_dict_keys(self):
        """{1: x} stringified would collide with {"1": x}."""
        with pytest.raises(ConfigurationError):
            canonicalize({1: "x"})

    def test_set_order_is_irrelevant(self):
        a = fingerprint({"s": {("b", 2), ("a", 1)}})
        b = fingerprint({"s": {("a", 1), ("b", 2)}})
        assert a == b
        assert fingerprint(frozenset({3, 1, 2})) == fingerprint({1, 2, 3})

    def test_set_sorts_by_canonical_encoding_not_repr(self):
        # Heterogeneous elements whose reprs would interleave with their
        # canonical JSON forms still canonicalize deterministically.
        assert (canonicalize({(1,), ("a",)})
                == canonicalize({("a",), (1,)}))


class TestSourceDigest:
    """One digest of every source under a package root: renames, file
    boundaries and edits all move it, whether or not anything imports
    the edited file."""

    def test_cached_and_stable(self, fresh_caches):
        root = SRC / "repro"
        first = source_digest(root)
        assert len(first) == 64
        assert source_digest(root) == first
        assert source_digest.cache_info().hits >= 1
        invalidate_fingerprint_caches()
        assert source_digest(root) == first

    def test_rename_with_the_same_bytes_changes_the_digest(
            self, tmp_path, fresh_caches):
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        before = source_digest(root)
        (root / "helper.py").rename(root / "helpers.py")
        invalidate_fingerprint_caches()
        assert source_digest(root) != before

    def test_file_boundaries_are_part_of_the_digest(self, tmp_path):
        """One file holding another's path and bytes never hashes like
        the two files."""
        one = _write_tree(tmp_path / "one" / "pkg",
                          {"a.py": "X\0b.py\0Y"})
        two = _write_tree(tmp_path / "two" / "pkg",
                          {"a.py": "X", "b.py": "Y"})
        assert source_digest(one) != source_digest(two)

    def test_content_edit_changes_the_digest(self, tmp_path, fresh_caches):
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        before = source_digest(root)
        helper = root / "helper.py"
        helper.write_text(helper.read_text() + "\nEXTRA = 1\n")
        invalidate_fingerprint_caches()
        assert source_digest(root) != before

    def test_bytecode_caches_are_not_sources(self, tmp_path, fresh_caches):
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        before = source_digest(root)
        _write_tree(root, {"__pycache__/helper.py": "stale = True\n"})
        invalidate_fingerprint_caches()
        assert source_digest(root) == before


    @pytest.mark.parametrize("package", ["synthetic", "repro"])
    def test_matches_the_documented_framing(self, package, tmp_path,
                                            fresh_caches):
        """Each ``*.py`` outside ``__pycache__``, in path order, hashed
        as ``\\0<relative path>\\0<byte length>\\0`` then its bytes."""
        if package == "repro":
            root = SRC / "repro"
        else:
            root = _write_tree(tmp_path / "provpkg", {
                **PROVIDER_FILES,
                "sub/__init__.py": "",
                "sub/deep.py": "DEEP = 1\n",
                "sub-x.py": "",
                "__pycache__/helper.py": "stale = True\n",
            })
        sources = {}
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if name.endswith(".py"):
                    path = Path(dirpath) / name
                    sources[path.relative_to(root).parts] = path.read_bytes()
        reference = hashlib.sha256()
        for parts in sorted(sources):
            data = sources[parts]
            reference.update(b"\0" + "/".join(parts).encode() + b"\0"
                             + str(len(data)).encode() + b"\0" + data)
        assert source_digest(root) == reference.hexdigest()

    def test_independent_of_the_package_location(self, tmp_path):
        """The same sources digest alike wherever they are checked out,
        so a moved checkout keeps its cache."""
        here = _write_tree(tmp_path / "here" / "provpkg", PROVIDER_FILES)
        there = _write_tree(tmp_path / "elsewhere" / "deeper" / "renamed",
                            PROVIDER_FILES)
        assert source_digest(here) == source_digest(there)

    def test_deleting_a_source_changes_the_digest(self, tmp_path,
                                                  fresh_caches):
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        before = source_digest(root)
        (root / "helper.py").unlink()
        invalidate_fingerprint_caches()
        assert source_digest(root) != before

    def test_moving_a_source_into_a_subpackage_changes_the_digest(
            self, tmp_path, fresh_caches):
        root = _write_tree(tmp_path / "provpkg",
                           {**PROVIDER_FILES, "sub/__init__.py": ""})
        before = source_digest(root)
        (root / "helper.py").rename(root / "sub" / "helper.py")
        invalidate_fingerprint_caches()
        assert source_digest(root) != before

    def test_touching_without_editing_keeps_the_digest(self, tmp_path,
                                                       fresh_caches):
        """The digest is of contents, not of timestamps: a checkout or a
        ``touch`` that rewrites no byte keeps every key."""
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        before = source_digest(root)
        for path in root.rglob("*.py"):
            stat = path.stat()
            os.utime(path, (stat.st_atime + 3600, stat.st_mtime + 3600))
        invalidate_fingerprint_caches()
        assert source_digest(root) == before

    def test_memoized_until_invalidated(self, tmp_path, fresh_caches):
        """A process digests each root once; an edit is seen only after
        :func:`invalidate_fingerprint_caches`."""
        root = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        before = source_digest(root)
        (root / "helper.py").write_text("SCALE = 3\n")
        assert source_digest(root) == before
        invalidate_fingerprint_caches()
        assert source_digest(root) != before

    def test_roots_are_digested_independently(self, tmp_path,
                                              fresh_caches):
        edited = _write_tree(tmp_path / "provpkg", PROVIDER_FILES)
        control = _write_tree(tmp_path / "ctrlpkg", CONTROL_FILES)
        edited_before, control_before = (source_digest(edited),
                                          source_digest(control))
        (edited / "helper.py").write_text("SCALE = 3\n")
        invalidate_fingerprint_caches()
        assert source_digest(edited) != edited_before
        assert source_digest(control) == control_before

    def test_nested_bytecode_caches_are_not_sources(self, tmp_path,
                                                    fresh_caches):
        root = _write_tree(tmp_path / "provpkg",
                           {**PROVIDER_FILES, "sub/__init__.py": ""})
        before = source_digest(root)
        _write_tree(root, {"sub/__pycache__/deep.py": "stale = True\n",
                           "sub/__pycache__/x/y.py": ""})
        invalidate_fingerprint_caches()
        assert source_digest(root) == before


class TestProviderDigest:
    def test_provider_edit_invalidates_key(self, tmp_path, monkeypatch):
        """Editing a provider module's source must change its jobs'
        keys, even for a plain module outside any package."""
        src = tmp_path / "fakeprov.py"
        src.write_text("X = 1\n")
        monkeypatch.setattr(jobmod, "_provider_source", lambda mod: src)
        before = _job(provider="fakeprov").key()
        src.write_text("X = 2\n")
        assert _job(provider="fakeprov").key() != before

    def test_unlocatable_provider_is_an_error(self):
        with pytest.raises(ConfigurationError):
            _job(provider="repro.no_such_module_anywhere").key()

    @pytest.fixture()
    def cljob(self, tmp_path, monkeypatch, fresh_caches):
        """An importable provider package whose builder imports a
        helper and does not import ``render``."""
        pkg = _write_tree(tmp_path / "cljob", {
            "__init__.py": "",
            "prov.py": ("from cljob import util\ndef build(cfg):\n"
                        "    return util.shape(cfg)\n"),
            "util.py": "def shape(cfg):\n    return cfg\n",
            "render.py": "def show(x):\n    return str(x)\n",
        })
        monkeypatch.syspath_prepend(str(tmp_path))
        return pkg

    def test_helper_edit_changes_the_key(self, cljob):
        """Editing a helper merely *imported* by the provider (never
        named in the job) must change the key."""
        before = _job(provider="cljob.prov").key()
        (cljob / "util.py").write_text(
            "def shape(cfg):\n    return cfg * 2\n")
        invalidate_fingerprint_caches()
        assert _job(provider="cljob.prov").key() != before

    @pytest.mark.parametrize("name,source", [
        ("render.py", "def show(x):\n    return repr(x)\n"),
        ("extra.py", ""),
    ], ids=["edited-render", "new-empty-module"])
    def test_a_module_no_provider_imports_changes_the_key(
            self, cljob, name, source):
        before = _job(provider="cljob.prov").key()
        (cljob / name).write_text(source)
        invalidate_fingerprint_caches()
        assert _job(provider="cljob.prov").key() != before

    def test_repro_edit_no_provider_imports_changes_the_key(
            self, tmp_path, monkeypatch, fresh_caches):
        """Every ``repro`` source keys every cell: editing the lint CLI,
        which no config builder imports, moves the default provider's
        key."""
        copy = tmp_path / "repro"
        shutil.copytree(SRC / "repro", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(jobmod, "_REPRO_ROOT", copy)
        before = _job().key()
        cli = copy / "lint" / "cli.py"
        cli.write_text(cli.read_text() + "\n# edited\n")
        invalidate_fingerprint_caches()
        assert _job().key() != before


    def test_key_is_independent_of_the_checkout_location(
            self, tmp_path, monkeypatch, fresh_caches):
        """A copy of the ``repro`` sources at another path keys every
        cell exactly as the original does."""
        expected = [_job().key(), _job(provider="json").key()]
        copy = tmp_path / "checkout" / "src" / "repro"
        shutil.copytree(SRC / "repro", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(jobmod, "_REPRO_ROOT", copy)
        invalidate_fingerprint_caches()
        assert [_job().key(), _job(provider="json").key()] == expected

    def test_the_experiments_providers_key_apart(self):
        """All ``repro`` providers share one code digest, so only the
        provider's name tells their cells apart -- and it must."""
        providers = ("repro.experiments.common",
                     "repro.experiments.fig01_iat",
                     "repro.experiments.fig06_footprints",
                     "repro.experiments.fig08_metadata",
                     "repro.experiments.ext_spectrum",
                     "repro.fleet.provider")
        keys = {_job(provider=name).key() for name in providers}
        assert len(keys) == len(providers)

    @pytest.mark.parametrize("raising", ["prov.py", "__init__.py"],
                             ids=["module-raises", "package-init-raises"])
    def test_keying_executes_no_provider_code(self, raising, tmp_path,
                                              monkeypatch, fresh_caches):
        """Keying locates and hashes a provider's sources; it never
        imports the provider or its package."""
        files = {"__init__.py": "", "prov.py": "def build(cfg):\n"
                                                "    return cfg\n"}
        files[raising] = "raise RuntimeError('imported while keying')\n"
        _write_tree(tmp_path / "boompkg", files)
        monkeypatch.syspath_prepend(str(tmp_path))
        key = _job(provider="boompkg.prov").key()
        assert len(key) == 64
        assert "boompkg" not in sys.modules
        assert "boompkg.prov" not in sys.modules

    def test_repro_edit_moves_a_non_repro_providers_key(
            self, cljob, tmp_path, monkeypatch):
        """A provider outside ``repro`` still runs ``repro`` code, so the
        ``repro`` digest keys its cells too."""
        copy = tmp_path / "repro"
        shutil.copytree(SRC / "repro", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(jobmod, "_REPRO_ROOT", copy)
        before = _job(provider="cljob.prov").key()
        core = copy / "sim" / "core.py"
        core.write_text(core.read_text() + "\n# edited\n")
        invalidate_fingerprint_caches()
        assert _job(provider="cljob.prov").key() != before

    def test_a_non_repro_package_edit_leaves_repro_providers_warm(
            self, cljob):
        """Only the ``repro`` digest keys a ``repro`` provider's cells:
        editing another top-level package moves none of them."""
        before = _job().key()
        other = _job(provider="cljob.prov").key()
        (cljob / "util.py").write_text(
            "def shape(cfg):\n    return cfg * 2\n")
        invalidate_fingerprint_caches()
        assert _job(provider="cljob.prov").key() != other
        assert _job().key() == before

    def test_identical_packages_under_other_names_key_apart(
            self, tmp_path, monkeypatch, fresh_caches):
        """Equal sources digest alike, but the provider's name is part of
        the key, so two copies never share a cell."""
        for name in ("twina", "twinb"):
            _write_tree(tmp_path / name, PROVIDER_FILES)
        monkeypatch.syspath_prepend(str(tmp_path))
        assert (source_digest(tmp_path / "twina")
                == source_digest(tmp_path / "twinb"))
        assert (_job(provider="twina.provider").key()
                != _job(provider="twinb.provider").key())

    def test_plain_module_provider_follows_its_bytes(
            self, tmp_path, monkeypatch, fresh_caches):
        """A provider that is a plain top-level module, found on
        ``sys.path``, is keyed by its own file's bytes."""
        src = tmp_path / "plainprov_mod.py"
        src.write_text("def build(cfg):\n    return cfg\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        before = _job(provider="plainprov_mod").key()
        assert _job(provider="plainprov_mod").key() == before
        src.write_text("def build(cfg):\n    return cfg * 2\n")
        invalidate_fingerprint_caches()
        assert _job(provider="plainprov_mod").key() != before
        assert "plainprov_mod" not in sys.modules

    def test_each_provider_kind_adds_its_own_sources(self):
        """``repro`` providers add nothing beyond the ``repro`` digest;
        another package adds its package's digest; a plain module adds
        its file's SHA-256."""
        import csv

        assert jobmod._provider_digest("repro.experiments.common") is None
        assert jobmod._provider_digest("json.decoder") == source_digest(
            Path(json.__file__).resolve().parent)
        assert jobmod._provider_digest("csv") == hashlib.sha256(
            Path(csv.__file__).read_bytes()).hexdigest()

    def test_the_provider_is_located_before_anything_is_hashed(
            self, monkeypatch):
        def refuse(root):
            raise AssertionError(f"hashed {root} before locating")

        monkeypatch.setattr(jobmod, "source_digest", refuse)
        with pytest.raises(ConfigurationError) as excinfo:
            _job(provider="repro.no_such_module_anywhere").key()
        assert "repro.no_such_module_anywhere" in str(excinfo.value)

    def test_missing_repro_module_names_the_file_it_looked_for(self):
        with pytest.raises(ConfigurationError) as excinfo:
            _job(provider="repro.experiments.no_such_fig").key()
        message = str(excinfo.value)
        assert "repro.experiments.no_such_fig" in message
        assert "no_such_fig.py or __init__.py" in message

    def test_namespace_directory_inside_repro_is_an_error(
            self, tmp_path, monkeypatch, fresh_caches):
        root = _write_tree(tmp_path / "repro", {"__init__.py": ""})
        (root / "nsdir").mkdir()
        monkeypatch.setattr(jobmod, "_REPRO_ROOT", root)
        with pytest.raises(ConfigurationError) as excinfo:
            _job(provider="repro.nsdir").key()
        assert "namespace" in str(excinfo.value)


class TestNonReproProviders:
    """Providers outside the ``repro`` package resolve through
    ``importlib.util.find_spec`` without being imported."""

    def test_stdlib_package_provider_fingerprints(self):
        key = _job(provider="json").key()
        assert key == _job(provider="json").key()
        assert key != _job().key()

    def test_stdlib_plain_module_provider_fingerprints(self):
        # A single-file module has no enclosing package: its own bytes
        # are digested.
        key = _job(provider="csv").key()
        assert key == _job(provider="csv").key()
        assert key not in (_job().key(), _job(provider="json").key())

    def test_unlocatable_provider_error_names_the_module(self):
        with pytest.raises(ConfigurationError) as excinfo:
            _job(provider="zz_no_such_provider_pkg.mod").key()
        message = str(excinfo.value)
        assert "zz_no_such_provider_pkg" in message
        assert "fingerprint" in message

    def test_namespace_style_reason_is_explained(self, tmp_path,
                                                 monkeypatch):
        # A directory with no __init__.py is a namespace package: no
        # source origin to digest, so the error must say why.
        (tmp_path / "nspkg_prov").mkdir()
        monkeypatch.syspath_prepend(str(tmp_path))
        with pytest.raises(ConfigurationError) as excinfo:
            _job(provider="nspkg_prov").key()
        assert "namespace" in str(excinfo.value)


_KEY_WITHOUT_THE_GRAPH = """
import sys
from pathlib import Path

from repro.lint.graph import ProjectGraph


def refuse(*args, **kwargs):
    raise RuntimeError("the package graph was built")


ProjectGraph.from_package = classmethod(refuse)

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


for name in ("fig10", "spectrum"):
    cells = []
    with engine.configure(cache_dir=Path(sys.argv[1]) / name) as ctx:
        ctx.executor = Capture()
        try:
            run_experiment(name, RunConfig.fast())
        except Captured:
            pass
    print(name, len(cells))
"""


def test_cells_key_into_an_empty_root_without_the_graph(tmp_path):
    """In a fresh interpreter, with the analyzer's graph builder made to
    raise, every ``fig10 --fast`` and ``spectrum --fast`` cell keys into
    an empty cache root and reaches the executor."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), str(SRC.parent)])}
    out = subprocess.run(
        [sys.executable, "-c", _KEY_WITHOUT_THE_GRAPH, str(tmp_path)],
        env=env, cwd=SRC.parent, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    counts = dict(line.split() for line in out.stdout.splitlines())
    assert sorted(counts) == ["fig10", "spectrum"]
    assert all(int(n) > 0 for n in counts.values())
    assert not list(tmp_path.rglob("*.pkl"))


class TestJobShape:
    def test_function_property(self):
        assert _job().function == "Auth-G"

    def test_describe_mentions_config_and_function(self):
        text = _job().describe()
        assert "Auth-G" in text and "baseline" in text

    def test_opts_roundtrip(self):
        job = _job(params=None, with_jukebox=True)
        assert job.opts_dict() == {"params": None, "with_jukebox": True}

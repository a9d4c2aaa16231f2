"""Declarative simulation cells and their content-addressed fingerprints.

A :class:`Job` is the picklable description of one simulation cell: *which
function* (its :class:`~repro.workloads.profiles.FunctionProfile`), on
*which machine*, at *which scale* (:class:`~repro.experiments.common
.RunConfig`), under *which configuration* (a name in the
``repro.experiments.common.CONFIGS`` registry), with which extra options.
Because a job is plain frozen data rather than a closure, it can cross
process boundaries to a worker pool and it has a *stable identity*:
:meth:`Job.key` hashes the canonical JSON encoding of every input that can
affect the result -- profile, machine parameters, run configuration,
config name, provider module, options -- plus :func:`code_version`, a
digest of the simulation sources, and :func:`provider_version`, a digest
of every source in the import closure of the module that registers the
job's config builder, so editing the simulator, any builder or any
helper a builder imports transparently invalidates every affected
memoized result.

Provider closures come from :mod:`repro.lint.graph`'s AST graph of the
whole package.  Building it costs far more than reading a warm cache, so
a caller keying against a result cache passes the cache root and the
closures are memoized under it (:func:`provider_closure`): one
``closures/<package>.json`` file per package, keyed by a digest of every
source file the graph reads.

This module deliberately imports nothing from ``repro.experiments`` or
``repro.sim``: the engine layer only describes and transports work; the
worker resolves ``Job.provider`` at execution time (see
:mod:`repro.engine.executors`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

#: Bumped whenever the cache payload layout changes incompatibly.
#: v2: ``RunConfig`` grew the ``backend`` field (columnar/scalar execution
#: backends); the field participates in every key through ``cfg``, so
#: results memoized under the pre-backend layout can never alias new ones.
SCHEMA_VERSION = 2

#: Module whose ``CONFIGS`` registry resolves standard config names.
DEFAULT_PROVIDER = "repro.experiments.common"

#: Package subtrees whose sources participate in :func:`code_version`:
#: any edit to simulation behaviour must invalidate memoized results.
_CODE_SUBTREES = ("sim", "core", "workloads", "server", "coldstart")
_CODE_FILES = ("experiments/common.py",)

#: Subdirectory of a result-cache root holding the provider-closure memos.
CLOSURE_MEMO_DIR = "closures"

#: The analyzer whose output the closure memo stores: its own source is
#: part of the memo key, so a changed analyzer never serves old closures.
_ANALYZER = "repro.lint.graph"

#: Module -> (source path relative to the package root, import closure),
#: for every module of one package's graph.
ClosureTable = Dict[str, Tuple[str, Tuple[str, ...]]]


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every simulation-relevant source file.

    The digest covers file *contents* in sorted path order, so it is
    identical across processes and machines for the same checkout.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    paths = []
    for subtree in _CODE_SUBTREES:
        paths.extend((root / subtree).glob("**/*.py"))
    paths.extend(root / name for name in _CODE_FILES)
    for path in sorted(paths):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=None)
def _package_graph(root: str, package: str) -> Any:
    """Memoized :class:`repro.lint.graph.ProjectGraph` for one package.

    Imported lazily: the analyzer only depends on ``repro.errors``, so no
    cycle forms, but the engine stays importable without paying a parse
    of the whole tree until a provider fingerprint is first requested.
    """
    from repro.lint.graph import ProjectGraph

    return ProjectGraph.from_package(Path(root), package)


def _graph_table(root: str, package: str) -> ClosureTable:
    """Every module's relative path and closure, from the package graph."""
    graph = _package_graph(root, package)
    return {name: (node.path.relative_to(graph.root).as_posix(),
                   graph.closure(name))
            for name, node in graph.modules.items()}


def _package_files(root: Path) -> List[Tuple[str, Path]]:
    """``(relative POSIX path, path)`` of every ``*.py`` under ``root``
    outside ``__pycache__``, sorted: the files
    :meth:`~repro.lint.graph.ProjectGraph.from_package` reads."""
    root = root.resolve()
    return [(path.relative_to(root).as_posix(), path)
            for path in sorted(root.rglob("*.py"))
            if "__pycache__" not in path.parts]


def closure_memo_key(package: str, files: List[Tuple[str, Path]]) -> str:
    """Digest of everything a package graph's closures depend on.

    It covers the package name, the Python minor version (the ``ast``
    grammar), the analyzer's own source and, for every source file, its
    relative path and its bytes (length-prefixed, so no two file sets
    share one byte stream).
    """
    digest = hashlib.sha256()
    version = "%d.%d" % sys.version_info[:2]
    digest.update(f"{package}\0{version}\0".encode())
    digest.update(_provider_source(_ANALYZER).read_bytes())
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"\0{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _read_closure_memo(path: Path, key: str,
                       files: List[Tuple[str, Path]]
                       ) -> Optional[ClosureTable]:
    """The memo's table if it is intact and keyed ``key``, else None.

    Anything unreadable, unparsable, keyed otherwise or of the wrong
    shape is a miss, never an error: every module must map to one of the
    package's source files and to a sorted closure of known modules that
    contains the module itself.
    """
    try:
        memo = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(memo, dict) or memo.get("key") != key:
        return None
    modules = memo.get("modules")
    if not isinstance(modules, dict):
        return None
    sources = {rel for rel, _path in files}
    table: ClosureTable = {}
    for name, entry in modules.items():
        if not (isinstance(entry, list) and len(entry) == 2):
            return None
        rel, closure = entry
        if not (isinstance(rel, str) and rel in sources
                and isinstance(closure, list)
                and all(isinstance(m, str) and m in modules for m in closure)
                and name in closure and closure == sorted(closure)):
            return None
        table[name] = (rel, tuple(closure))
    return table


def _write_closure_memo(path: Path, key: str, table: ClosureTable) -> None:
    """Atomically replace the memo; best effort, since every caller has
    the table either way.  The temp name matches the result cache's, so
    :meth:`~repro.engine.cache.ResultCache.open` reaps an orphan."""
    memo = {"key": key,
            "modules": {name: [rel, list(closure)]
                        for name, (rel, closure) in table.items()}}
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(memo, sort_keys=True,
                                  separators=(",", ":")))
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()


@lru_cache(maxsize=None)
def _closure_table(root: str, package: str,
                   cache_root: Union[str, Path, None]) -> ClosureTable:
    """Every module's relative path and closure for one package.

    With no ``cache_root`` this builds the graph.  Otherwise it reads
    ``<cache_root>/closures/<package>.json`` and rebuilds (and rewrites)
    it only when the memo is missing, damaged or keyed by other sources.
    A memo is written only if the sources hash the same after the build
    as before it, so an edit racing the build is never recorded.
    """
    if cache_root is None:
        return _graph_table(root, package)
    files = _package_files(Path(root))
    key = closure_memo_key(package, files)
    path = Path(cache_root) / CLOSURE_MEMO_DIR / f"{package}.json"
    table = _read_closure_memo(path, key, files)
    if table is None:
        table = _graph_table(root, package)
        if closure_memo_key(package, _package_files(Path(root))) == key:
            _write_closure_memo(path, key, table)
    return table


def _package_root(top: str) -> "Path | None":
    """Directory of top-level package ``top``, or None for a plain
    module.  Uses ``find_spec`` on the *top-level* name only, so nothing
    is executed."""
    import importlib.util

    try:
        spec = importlib.util.find_spec(top)
    except (ImportError, ValueError):
        return None
    if spec is None:
        return None
    locations = spec.submodule_search_locations
    if locations:
        for location in locations:
            root = Path(location)
            if root.is_dir():
                return root
    return None


@lru_cache(maxsize=None)
def provider_closure(provider: str,
                     cache_root: Union[str, Path, None] = None
                     ) -> Tuple[str, ...]:
    """Sorted module names whose sources :func:`provider_version` digests.

    The closure is the provider's *whole-program static import closure*
    inside its own top-level package, computed by the AST analyzer in
    :mod:`repro.lint.graph` (cycle-safe, sorted, memoized) -- so a helper
    module merely *imported* by a config builder participates in the
    digest, and editing it invalidates exactly the providers that depend
    on it.  A provider that is a plain single-file module (no enclosing
    package) digests just its own source.  Lint rule REPRO009
    cross-validates this closure against an independently built graph.

    ``cache_root`` names a result-cache root to memoize the package's
    closures under (see :func:`closure_memo_key`); without one the graph
    is built in-process.  Either way the closure is the same.
    """
    top = provider.split(".")[0]
    root = _package_root(top)
    if root is None:
        _provider_source(provider)  # raises a typed error if unlocatable
        return (provider,)
    table = _closure_table(str(root), top, cache_root)
    if provider not in table:
        _provider_source(provider)
        return (provider,)
    return table[provider][1]


@lru_cache(maxsize=None)
def provider_version(provider: str,
                     cache_root: Union[str, Path, None] = None) -> str:
    """Digest of every source in a provider module's import closure.

    Config builders registered outside the :func:`code_version` subtrees
    (e.g. ``contended`` in ``fig01_iat``, ``footprints`` in fig06,
    ``miss_stream`` in fig08) contain real measurement logic, so every
    job fingerprints the *closure* of the module providing its config:
    editing the builder -- or any helper module it imports, directly or
    transitively -- invalidates exactly that provider's memoized cells,
    while cells of unrelated providers stay warm.  ``cache_root`` is
    passed through to :func:`provider_closure`.
    """
    digest = hashlib.sha256()
    top = provider.split(".")[0]
    root = _package_root(top)
    table = (_closure_table(str(root), top, cache_root)
             if root is not None else {})
    for module in provider_closure(provider, cache_root):
        if module in table:
            path = root / table[module][0]
        else:
            path = _provider_source(module)
        digest.update(module.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def invalidate_fingerprint_caches() -> None:
    """Drop every memoized source digest (tests that edit sources on
    disk call this between edits; production never needs it)."""
    code_version.cache_clear()
    provider_version.cache_clear()
    provider_closure.cache_clear()
    _closure_table.cache_clear()
    _package_graph.cache_clear()


def _provider_source(module: str) -> Path:
    """Locate a module's source file without importing it.

    ``repro.*`` modules resolve against the installed package root; other
    modules fall back to :func:`importlib.util.find_spec`.  A provider
    whose source cannot be found raises a typed
    :class:`~repro.errors.ConfigurationError` naming the module and the
    reason -- its cells must never be cached without code fingerprinting.
    """
    import repro

    reason = "module source not found"
    parts = module.split(".")
    if parts[0] == "repro":
        base = Path(repro.__file__).resolve().parent.joinpath(*parts[1:])
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            if candidate.is_file():
                return candidate
        reason = (f"no such file under the installed package root "
                  f"({base.with_suffix('.py').name} or __init__.py)")
    else:
        import importlib.util

        try:
            spec = importlib.util.find_spec(module)
        except (ImportError, ValueError) as exc:
            spec = None
            reason = f"find_spec failed: {exc}"
        if spec is not None:
            if spec.origin:
                origin = Path(spec.origin)
                if origin.is_file():
                    return origin
                reason = (f"spec origin {spec.origin!r} is not a "
                          f"readable source file")
            else:
                reason = ("module has no source origin (namespace "
                          "package or built-in)")
    raise ConfigurationError(
        f"cannot locate source for provider module {module!r} ({reason}); "
        f"its jobs cannot be fingerprinted"
    )


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable data with a deterministic shape.

    Every container is tagged with its type (``["list", ...]`` vs
    ``["tuple", ...]``) so distinct values never share a canonical form;
    dataclasses become name-tagged field dicts; set elements are sorted by
    their canonical JSON encoding, which is stable whatever the insertion
    order of their members.  Dict keys must be strings -- stringifying
    ``{1: x}`` would alias it with ``{"1": x}`` -- and anything without an
    obvious canonical form (open handles, closures, arbitrary objects) is
    rejected so it can never silently alias two distinct cells.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: canonicalize(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        fields["__dataclass__"] = type(value).__name__
        return fields
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"cannot fingerprint dict key {key!r}; keys must be "
                    f"strings so they never alias their string forms"
                )
        return ["dict", {k: canonicalize(v) for k, v in value.items()}]
    if isinstance(value, tuple):
        return ["tuple", [canonicalize(v) for v in value]]
    if isinstance(value, list):
        return ["list", [canonicalize(v) for v in value]]
    if isinstance(value, (set, frozenset)):
        elements = [canonicalize(v) for v in value]
        elements.sort(key=lambda e: json.dumps(e, sort_keys=True,
                                               separators=(",", ":")))
        return ["set", elements]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot fingerprint {type(value).__name__!r} value {value!r}; "
        f"job inputs must be primitives, containers or dataclasses"
    )


def fingerprint(value: Any) -> str:
    """Stable SHA-256 hex digest of a canonicalized value."""
    payload = json.dumps(canonicalize(value), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    """One simulation cell: (function x machine x RunConfig x config).

    ``opts`` is a sorted tuple of (name, value) pairs so the dataclass
    stays frozen/picklable; build jobs through :meth:`Job.make` to get the
    normalization for free.  ``machine`` may be ``None`` for trace-only
    configs (e.g. footprint collection) whose results are
    machine-independent -- keeping the cache key honest.
    """

    profile: Any
    machine: Any
    cfg: Any
    config: str
    opts: Tuple[Tuple[str, Any], ...] = ()
    provider: str = DEFAULT_PROVIDER

    @staticmethod
    def make(profile: Any, machine: Any, cfg: Any, config: str,
             provider: str = DEFAULT_PROVIDER, **opts: Any) -> "Job":
        return Job(profile=profile, machine=machine, cfg=cfg, config=config,
                   opts=tuple(sorted(opts.items())), provider=provider)

    @property
    def function(self) -> str:
        return getattr(self.profile, "abbrev", str(self.profile))

    def opts_dict(self) -> Dict[str, Any]:
        return dict(self.opts)

    def key(self, cache_root: Union[str, Path, None] = None) -> str:
        """Content-addressed cache key of this cell's result.

        ``cache_root`` is the result cache the key addresses, if any; the
        provider's import closure is memoized under it.  The key is the
        same with or without it.
        """
        return fingerprint({
            "schema": SCHEMA_VERSION,
            "code": code_version(),
            "provider": self.provider,
            "provider_code": provider_version(self.provider, cache_root),
            "profile": self.profile,
            "machine": self.machine,
            "cfg": self.cfg,
            "config": self.config,
            "opts": self.opts_dict(),
        })

    def describe(self) -> str:
        return f"{self.function}/{self.config}"

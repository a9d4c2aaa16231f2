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
config name, provider module, options -- plus :func:`source_digest` of
the whole ``repro`` package (and of the provider's own package when it
lives outside ``repro``), so editing any source transparently
invalidates every memoized result.

This module deliberately imports nothing from ``repro.experiments`` or
``repro.sim``: the engine layer only describes and transports work; the
worker resolves ``Job.provider`` at execution time (see
:mod:`repro.engine.executors`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Bumped whenever the cache payload layout changes incompatibly.
#: v2: ``RunConfig`` grew the ``backend`` field (columnar/scalar execution
#: backends); the field participates in every key through ``cfg``, so
#: results memoized under the pre-backend layout can never alias new ones.
SCHEMA_VERSION = 2

#: Module whose ``CONFIGS`` registry resolves standard config names.
DEFAULT_PROVIDER = "repro.experiments.common"

#: Directory of the ``repro`` package, whose sources key every cell.
_REPRO_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def source_digest(root: Path) -> str:
    """SHA-256 of every ``*.py`` under package directory ``root``.

    Files outside ``__pycache__`` are hashed in sorted order, each framed
    as its relative POSIX path, its byte length and its bytes, so a
    rename with the same bytes or bytes moved across a file boundary
    changes the digest.  It is identical across processes and machines
    for the same sources.
    """
    root = Path(root).resolve()
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        rel = path.relative_to(root).as_posix()
        digest.update(f"\0{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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


def _provider_digest(provider: str) -> Optional[str]:
    """Digest of a provider's sources beyond the ``repro`` package.

    The provider is located first, so an unlocatable one raises a typed
    error before anything is hashed.  A ``repro`` provider adds nothing;
    another one adds its top-level package's :func:`source_digest`, or
    its own bytes when it is a plain module.
    """
    source = _provider_source(provider)
    top = provider.partition(".")[0]
    if top == "repro":
        return None
    root = _package_root(top)
    if root is not None:
        return source_digest(root)
    return hashlib.sha256(source.read_bytes()).hexdigest()


def invalidate_fingerprint_caches() -> None:
    """Drop every memoized source digest (tests that edit sources on
    disk call this between edits; production never needs it)."""
    source_digest.cache_clear()


def _provider_source(module: str) -> Path:
    """Locate a module's source file without importing it.

    A module inside a package resolves against its top-level package's
    directory (``repro`` against the installed package root); a plain
    top-level module falls back to :func:`importlib.util.find_spec`.  A
    provider whose source cannot be found raises a typed
    :class:`~repro.errors.ConfigurationError` naming the module and the
    reason -- its cells must never be cached without code fingerprinting.
    """
    reason = "module source not found"
    top, _, rest = module.partition(".")
    root = _REPRO_ROOT if top == "repro" else _package_root(top)
    if root is not None:
        base = root.joinpath(*rest.split(".")) if rest else root
        for candidate in (base / "__init__.py", base.with_suffix(".py")):
            if candidate.is_file():
                return candidate
        if base.is_dir():
            reason = "module has no source origin (namespace package)"
        else:
            reason = (f"no such file under its package root "
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
                reason = "module has no source origin"
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

    def key(self) -> str:
        """Content-addressed cache key of this cell's result."""
        provider_code = _provider_digest(self.provider)
        return fingerprint({
            "schema": SCHEMA_VERSION,
            "code": source_digest(_REPRO_ROOT),
            "provider": self.provider,
            "provider_code": provider_code,
            "profile": self.profile,
            "machine": self.machine,
            "cfg": self.cfg,
            "config": self.config,
            "opts": self.opts_dict(),
        })

    def describe(self) -> str:
        return f"{self.function}/{self.config}"

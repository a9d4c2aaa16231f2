"""Lazy re-exports for the package roots (PEP 562).

Each package root names its public API in one table, name -> defining
module, and resolves a name from its module on first access.  Importing
a light submodule (``repro.workloads.suite``, ``repro.sim.result``)
therefore runs only its package roots' tables, not the simulator behind
them, so a fully cached re-run never imports numpy (DESIGN.md Sec. 9).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, List, Mapping, MutableMapping, Tuple


def lazy_exports(namespace: MutableMapping[str, Any],
                 exports: Mapping[str, str],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a package root.

    ``namespace`` is the root's ``globals()``; ``exports`` maps each
    re-exported name to the module defining it.  A resolved name is bound
    in ``namespace``, so it is looked up once.  An unknown name raises
    :class:`AttributeError`, which also lets ``from package import
    submodule`` fall through to the import system.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__

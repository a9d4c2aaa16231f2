"""Whole-program import and call graphs, built from source text only.

:class:`ProjectGraph` parses every module of a package with :mod:`ast` --
nothing is imported, so analysing a tree can never execute it -- and
resolves

* absolute imports (``import repro.sim.cache``),
* relative imports at any level (``from ..core import crrb``),
* re-exports through ``__init__`` (``from repro.engine import Job`` finds
  the defining module ``repro.engine.job`` by following the package
  ``__init__``'s own ``from``-imports), and
* attribute calls on imported modules (``cache.fingerprint(...)``).

Each module's import **bindings** feed the **call graph**
(:meth:`ProjectGraph.functions`, :attr:`FunctionInfo.calls`): one node
per function/method with edges to every project-internal callee that
static resolution can pin down, plus the canonical dotted names of
unresolved/external calls (:attr:`FunctionInfo.raw_calls`) -- this is
what the taint analysis in :mod:`repro.lint.flow` and the worker-safety
rule in :mod:`repro.lint.soundness` walk.

Resolution is deliberately *under*-approximate for call edges (an edge we
cannot prove is dropped, so findings stay precise); a lazy ``import``
inside a function still binds its name, since it is a real dependency of
the module's behaviour.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError

#: Mutable-constructor names shared with rule REPRO004 / REPRO010.
MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict",
    "OrderedDict", "Counter", "deque",
})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_dotted(module: ModuleNode, dotted: str) -> str:
    """Rewrite a call's head through import bindings to an absolute
    dotted name (``t.time`` -> ``time.time`` under ``import time as
    t``; bare ``time`` -> ``time.time`` under ``from time import
    time``)."""
    parts = dotted.split(".")
    binding = module.bindings.get(parts[0])
    if binding is None:
        return dotted
    if binding.attr is None:
        return ".".join([binding.module] + parts[1:])
    return ".".join([binding.module, binding.attr] + parts[1:])


@dataclass(frozen=True)
class ImportBinding:
    """One local name bound by an import statement.

    ``module`` is the resolved absolute source module; ``attr`` is the
    imported attribute for ``from module import attr`` and ``None`` for a
    plain ``import module [as alias]`` binding.
    """

    module: str
    attr: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function/method node of the call graph.

    ``id`` is ``"module:qualname"`` (``repro.sim.cache:LRUCache.lookup``).
    ``calls`` holds resolved project-internal callee ids; ``raw_calls``
    holds ``(canonical_dotted_name, lineno, sanitized)`` triples for every
    call whose target is external or unresolved -- canonicalized through
    the module's import bindings, so ``from time import time; time()``
    surfaces as ``time.time``.  ``sanitized`` marks calls appearing as the
    first argument of ``sorted(...)``.
    """

    id: str
    module: str
    qualname: str
    lineno: int
    node: ast.AST
    calls: Set[str] = field(default_factory=set)
    raw_calls: List[Tuple[str, int, bool]] = field(default_factory=list)
    decorators: Tuple[str, ...] = ()
    #: Local ``name = Ctor(...)`` assignments (first one wins), letting
    #: ``sim = Simulator(...); sim.run(...)`` resolve into methods.
    ctor_assigns: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleNode:
    """One parsed module: its tree and name bindings."""

    name: str
    path: Path
    tree: ast.Module
    is_package: bool
    bindings: Dict[str, ImportBinding] = field(default_factory=dict)
    definitions: Set[str] = field(default_factory=set)


class ProjectGraph:
    """Import + call graph over one package directory tree."""

    def __init__(self, package: str, root: Path,
                 modules: Dict[str, ModuleNode]) -> None:
        self.package = package
        self.root = root
        self.modules = modules
        self._functions: Optional[Dict[str, FunctionInfo]] = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_package(cls, root: Path, package: Optional[str] = None
                     ) -> "ProjectGraph":
        """Build the graph for the package rooted at directory ``root``.

        ``package`` defaults to ``root.name``.  Every ``*.py`` under the
        root participates; ``__pycache__`` is skipped.
        """
        root = Path(root).resolve()
        if not root.is_dir():
            raise ConfigurationError(
                f"cannot build project graph: {root} is not a directory")
        package = package or root.name
        modules: Dict[str, ModuleNode] = {}
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root)
            parts = list(rel.parts)
            is_package = parts[-1] == "__init__.py"
            if is_package:
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][:-3]
            name = ".".join([package] + parts) if parts else package
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
            except SyntaxError:
                # Unparsable files are reported by the per-file linter
                # (REPRO000); the graph simply has no node for them.
                continue
            modules[name] = ModuleNode(name=name, path=path, tree=tree,
                                       is_package=is_package)
        graph = cls(package, root, modules)
        for node in modules.values():
            graph._resolve_module(node)
        return graph

    def _resolve_module(self, node: ModuleNode) -> None:
        for stmt in ast.walk(node.tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self._bind_import(node, alias)
            elif isinstance(stmt, ast.ImportFrom):
                self._bind_import_from(node, stmt)
        for stmt in node.tree.body:
            for name in _defined_names(stmt):
                node.definitions.add(name)

    def _bind_import(self, node: ModuleNode, alias: ast.alias) -> None:
        target = alias.name
        local = alias.asname or target.split(".")[0]
        bound = target if alias.asname else target.split(".")[0]
        node.bindings[local] = ImportBinding(module=bound)

    def _bind_import_from(self, node: ModuleNode,
                          stmt: ast.ImportFrom) -> None:
        base = self._resolve_from_base(node, stmt.module, stmt.level)
        if base is None:
            return
        for alias in stmt.names:
            if alias.name == "*":
                continue
            node.bindings[alias.asname or alias.name] = ImportBinding(
                module=base, attr=alias.name)

    def _resolve_from_base(self, node: ModuleNode, module: Optional[str],
                           level: int) -> Optional[str]:
        if level == 0:
            return module
        anchor = node.name if node.is_package else (
            node.name.rsplit(".", 1)[0] if "." in node.name else "")
        parts = anchor.split(".") if anchor else []
        drop = level - 1
        if drop > len(parts):
            return None
        prefix = ".".join(parts[:len(parts) - drop])
        if module:
            return f"{prefix}.{module}" if prefix else module
        return prefix or None

    # -- symbol resolution ----------------------------------------------

    def resolve_export(self, module: str, name: str,
                       _seen: Optional[Set[Tuple[str, str]]] = None
                       ) -> Optional[Tuple[str, Optional[str]]]:
        """Resolve attribute ``name`` of ``module`` to its definition.

        Returns ``(defining_module, symbol)``; ``symbol`` is ``None`` when
        the attribute is itself a module (a submodule, or a module bound
        by the ``__init__``).  Follows ``from``-import chains through any
        number of re-exporting ``__init__`` files, with a cycle guard.
        """
        node = self.modules.get(module)
        if node is None:
            return None
        if _seen is None:
            _seen = set()
        key = (module, name)
        if key in _seen:
            return None
        _seen.add(key)
        if name in node.definitions:
            return (module, name)
        binding = node.bindings.get(name)
        if binding is not None:
            if binding.attr is None:
                return ((binding.module, None)
                        if binding.module in self.modules else None)
            if binding.module in self.modules:
                resolved = self.resolve_export(binding.module, binding.attr,
                                               _seen)
                if resolved is not None:
                    return resolved
                sub = f"{binding.module}.{binding.attr}"
                return (sub, None) if sub in self.modules else None
            return None
        sub = f"{module}.{name}"
        if sub in self.modules:
            return (sub, None)
        return None

    # -- call graph ------------------------------------------------------

    def functions(self) -> Dict[str, FunctionInfo]:
        """The call graph: ``"module:qualname"`` -> :class:`FunctionInfo`.

        Classes contribute one pseudo-node per class (``module:Class``,
        carrying the ``__init__`` body's calls, so instantiations link
        into constructors) plus one node per method.
        """
        if self._functions is None:
            table: Dict[str, FunctionInfo] = {}
            for name in sorted(self.modules):
                _CallGraphBuilder(self.modules[name], table).build()
            self._link_calls(table)
            self._functions = table
        return self._functions

    def _link_calls(self, table: Dict[str, FunctionInfo]) -> None:
        """Second pass: resolve recorded call expressions to node ids."""
        for info in table.values():
            module = self.modules[info.module]
            resolved: Set[str] = set()
            remaining: List[Tuple[str, int, bool]] = []
            for dotted, lineno, sanitized in info.raw_calls:
                target = self._resolve_call(module, info, dotted, table)
                if target is not None:
                    resolved.add(target)
                else:
                    remaining.append((canonical_dotted(module, dotted),
                                      lineno, sanitized))
            info.calls |= resolved
            info.raw_calls = remaining

    def _resolve_call(self, module: ModuleNode, info: FunctionInfo,
                      dotted: str, table: Dict[str, FunctionInfo],
                      _seen: Optional[Set[str]] = None) -> Optional[str]:
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        # self.method() -> a method of the enclosing class.
        if head == "self" and len(rest) == 1 and "." in info.qualname:
            cls = info.qualname.split(".")[0]
            target = f"{info.module}:{cls}.{rest[0]}"
            return target if target in table else None
        # x.method() where x was assigned a resolvable constructor call.
        if head in info.ctor_assigns and len(rest) == 1:
            if _seen is None:
                _seen = set()
            if dotted not in _seen:
                _seen.add(dotted)
                owner = self._resolve_call(module, info,
                                           info.ctor_assigns[head], table,
                                           _seen)
                if owner is not None:
                    target = f"{owner}.{rest[0]}"
                    if target in table:
                        return target
        # A name defined in this module (function, class, nested def).
        if not rest:
            if "." in info.qualname:
                nested = f"{info.module}:{info.qualname}.{head}"
                if nested in table:
                    return nested
            local = f"{info.module}:{head}"
            if local in table:
                return local
        # A name imported from a project module (possibly re-exported).
        binding = module.bindings.get(head)
        if binding is None:
            return None
        if binding.attr is not None:
            base = self.resolve_export(binding.module, binding.attr)
        else:
            base = (binding.module, None) \
                if binding.module in self.modules else None
        if base is None:
            return None
        base_module, base_attr = base
        chain = ([base_attr] if base_attr else []) + rest
        # Walk module-valued attributes (import repro.sim; repro.sim.x.f()).
        while len(chain) > 1 and f"{base_module}.{chain[0]}" in self.modules:
            base_module = f"{base_module}.{chain[0]}"
            chain = chain[1:]
        if len(chain) != 1:
            return None
        resolved = self.resolve_export(base_module, chain[0])
        if resolved is None or resolved[1] is None:
            return None
        target = f"{resolved[0]}:{resolved[1]}"
        return target if target in table else None


def _defined_names(stmt: ast.stmt) -> Iterator[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        yield element.id
    elif isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name):
            yield stmt.target.id
    elif isinstance(stmt, (ast.If, ast.Try)):
        for sub in ast.iter_child_nodes(stmt):
            if isinstance(sub, ast.stmt):
                yield from _defined_names(sub)


class _CallGraphBuilder:
    """Extract :class:`FunctionInfo` nodes for one module."""

    def __init__(self, module: ModuleNode,
                 table: Dict[str, FunctionInfo]) -> None:
        self.module = module
        self.table = table

    def build(self) -> None:
        self._visit_body(self.module.tree.body, prefix="")

    def _visit_body(self, body: Sequence[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, prefix)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(stmt, prefix)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
                self._visit_body([s for s in ast.iter_child_nodes(stmt)
                                  if isinstance(s, ast.stmt)], prefix)

    def _add_class(self, node: ast.ClassDef, prefix: str) -> None:
        qual = f"{prefix}{node.name}"
        info = FunctionInfo(
            id=f"{self.module.name}:{qual}",
            module=self.module.name, qualname=qual, lineno=node.lineno,
            node=node, decorators=self._decorator_names(node))
        self.table[info.id] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._add_function(stmt, prefix=f"{qual}.")
                if stmt.name == "__init__":
                    # Instantiating the class runs __init__: the class
                    # pseudo-node forwards straight into it.
                    info.calls.add(method.id)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(stmt, prefix=f"{qual}.")

    def _add_function(self, node: ast.AST, prefix: str) -> FunctionInfo:
        qual = f"{prefix}{node.name}"
        info = FunctionInfo(
            id=f"{self.module.name}:{qual}",
            module=self.module.name, qualname=qual, lineno=node.lineno,
            node=node, decorators=self._decorator_names(node))
        self.table[info.id] = info
        sanitized = _sorted_wrapped_calls(node)
        for child in _walk_function_body(node):
            if isinstance(child, ast.Call):
                dotted = dotted_name(child.func)
                if dotted is not None:
                    info.raw_calls.append(
                        (dotted, child.lineno, id(child) in sanitized))
            elif isinstance(child, ast.Assign):
                if (len(child.targets) == 1
                        and isinstance(child.targets[0], ast.Name)
                        and isinstance(child.value, ast.Call)):
                    ctor = dotted_name(child.value.func)
                    if ctor is not None:
                        info.ctor_assigns.setdefault(
                            child.targets[0].id, ctor)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(child, prefix=f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                self._add_class(child, prefix=f"{qual}.")
        return info

    def _decorator_names(self, node: ast.AST) -> Tuple[str, ...]:
        names = []
        for dec in getattr(node, "decorator_list", []):
            target = dec.func if isinstance(dec, ast.Call) else dec
            dotted = dotted_name(target)
            if dotted is not None:
                names.append(canonical_dotted(self.module, dotted))
        return tuple(names)


def _walk_function_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, stopping at nested defs/classes
    (they become their own call-graph nodes).  Decorator expressions are
    excluded: they run at definition time, not when the function is
    called, so they must not create call edges out of the function."""
    decorators = {id(d) for d in getattr(node, "decorator_list", [])}
    stack: List[ast.AST] = [child for child in ast.iter_child_nodes(node)
                            if id(child) not in decorators]
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _sorted_wrapped_calls(node: ast.AST) -> Set[int]:
    """ids of Call nodes appearing as the first argument of sorted()."""
    wrapped: Set[int] = set()
    for child in ast.walk(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "sorted" and child.args):
            wrapped.add(id(child.args[0]))
    return wrapped

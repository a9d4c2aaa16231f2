"""Whole-program soundness rule REPRO010: worker safety.

Objects crossing the :class:`~repro.engine.executors.ProcessExecutor`
pickle boundary (the classes named by
:data:`repro.engine.executors.PICKLE_BOUNDARY`) must not carry
unpicklable members (lambdas, open handles, locks, generators), and
worker-reachable code must not mutate module-level mutable state: each
pool worker has its own copy, so such mutations silently diverge between
serial and parallel runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import Violation
from repro.lint.graph import (
    MUTABLE_CALLS,
    ModuleNode,
    ProjectGraph,
    canonical_dotted,
    dotted_name,
)


@dataclass(frozen=True)
class WholeProgramRule:
    """Registry descriptor for a whole-program rule (no per-file check)."""

    id: str
    severity: str
    description: str


REPRO010 = WholeProgramRule(
    id="REPRO010", severity="error",
    description=("worker safety: no unpicklable members on classes "
                 "crossing the ProcessExecutor boundary; no module-level "
                 "mutable state mutated in worker-reachable code"))

WHOLE_PROGRAM_RULES: Tuple[WholeProgramRule, ...] = (REPRO010,)

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault",
})

_UNPICKLABLE_CALLS = frozenset({
    "open",
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Barrier",
})


def _default_boundary(graph: ProjectGraph) -> Tuple[str, ...]:
    if graph.package != "repro":
        return ()
    from repro.engine.executors import PICKLE_BOUNDARY
    return PICKLE_BOUNDARY


def check_worker_safety(
        graph: ProjectGraph,
        boundary: Optional[Sequence[str]] = None,
        entries: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """REPRO010: pickle-boundary classes and worker-visible module state."""
    if boundary is None:
        boundary = _default_boundary(graph)
    violations: List[Violation] = []
    violations.extend(_check_boundary_classes(graph, boundary))
    violations.extend(_check_module_state_mutation(graph, entries))
    violations.sort(key=lambda v: (v.path, v.line, v.col))
    return violations


def _check_boundary_classes(graph: ProjectGraph,
                            boundary: Sequence[str]) -> List[Violation]:
    violations: List[Violation] = []
    table = graph.functions()
    for spec in boundary:
        module_name, _, qualname = spec.partition(":")
        info = table.get(f"{module_name}:{qualname}")
        if info is None or not isinstance(info.node, ast.ClassDef):
            continue
        module = graph.modules[module_name]
        for value, what in _member_values(info.node):
            reason = _unpicklable_reason(module, value)
            if reason is not None:
                violations.append(Violation(
                    rule_id=REPRO010.id, severity=REPRO010.severity,
                    path=str(module.path), line=value.lineno,
                    col=value.col_offset,
                    message=(f"worker safety: {what} of {qualname!r} is "
                             f"{reason}, but instances of {qualname!r} "
                             f"cross the ProcessExecutor pickle boundary"),
                ))
    return violations


def _member_values(cls: ast.ClassDef):
    """(value expression, description) pairs for class members."""
    for stmt in cls.body:
        value = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            value = stmt.value
        if value is not None:
            yield value, "a class attribute"
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "__init__"):
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            yield sub.value, \
                                f"instance attribute {target.attr!r}"


def _unpicklable_reason(module: ModuleNode,
                        value: ast.expr) -> Optional[str]:
    if isinstance(value, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression (unpicklable)"
    if isinstance(value, ast.Call):
        # field(default_factory=...) values are built per instance; the
        # factory itself never crosses the boundary -- but a *default*
        # that is itself unpicklable does.
        dotted = dotted_name(value.func)
        if dotted is not None:
            canonical = canonical_dotted(module, dotted)
            if canonical in _UNPICKLABLE_CALLS:
                return f"a {canonical}() value (unpicklable)"
        for kw in value.keywords:
            if kw.arg == "default" and isinstance(kw.value, ast.Lambda):
                return "a lambda default (unpicklable)"
    return None


def _module_mutables(node: ModuleNode) -> Set[str]:
    """Names of module-level assignments holding mutable containers."""
    mutables: Set[str] = set()
    for stmt in node.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_expr(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutables.add(target.id)
    return mutables


def _is_mutable_expr(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = value.func.id if isinstance(value.func, ast.Name) else None
        return name in MUTABLE_CALLS
    return False


def _worker_reachable(graph: ProjectGraph,
                      entries: Optional[Sequence[str]]) -> Set[str]:
    from repro.lint import flow

    table = graph.functions()
    entry_ids = (flow.resolve_entries(graph) if entries is None
                 else flow.resolve_entries(graph, entries))
    reachable: Set[str] = set()
    stack = list(entry_ids)
    while stack:
        fid = stack.pop()
        if fid in reachable or fid not in table:
            continue
        reachable.add(fid)
        stack.extend(sorted(table[fid].calls))
    return reachable


def _check_module_state_mutation(
        graph: ProjectGraph,
        entries: Optional[Sequence[str]]) -> List[Violation]:
    mutables_by_module = {name: _module_mutables(node)
                          for name, node in graph.modules.items()}
    table = graph.functions()
    violations: List[Violation] = []
    for fid in sorted(_worker_reachable(graph, entries)):
        info = table[fid]
        module = graph.modules[info.module]
        local_names = _locally_bound_names(info.node)
        for name, line, how in _mutations_in(info.node, module,
                                             mutables_by_module):
            if name in local_names:
                continue  # shadowed by a local binding; not module state
            violations.append(Violation(
                rule_id=REPRO010.id, severity=REPRO010.severity,
                path=str(module.path), line=line, col=0,
                message=(f"worker safety: {info.qualname!r} is reachable "
                         f"from the worker entry points and {how} "
                         f"module-level mutable {name!r}; each pool "
                         f"worker mutates its own copy, so serial and "
                         f"parallel runs silently diverge"),
            ))
    return violations


def _locally_bound_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(child, ast.AnnAssign):
            if isinstance(child.target, ast.Name):
                names.add(child.target.id)
    # `global X` declarations un-shadow: mutations hit module state.
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            names.difference_update(child.names)
    return names


def _mutations_in(node: ast.AST, module: ModuleNode,
                  mutables_by_module: Dict[str, Set[str]]):
    """Yield ``(module_level_name, lineno, verb)`` mutation witnesses."""
    own = mutables_by_module.get(module.name, set())

    def classify_target(expr: ast.expr) -> Optional[str]:
        # NAME[...] or NAME.method style bases; also alias.NAME for
        # imported-module attributes.
        if isinstance(expr, ast.Name) and expr.id in own:
            return expr.id
        if isinstance(expr, ast.Attribute) and isinstance(expr.value,
                                                          ast.Name):
            binding = module.bindings.get(expr.value.id)
            if binding is None:
                return None
            # `import pkg.state as state` binds the module directly;
            # `from pkg import state` binds ("pkg", "state") -- treat it
            # as module-valued when pkg.state is a known module.
            if binding.attr is None:
                bound = binding.module
            else:
                bound = f"{binding.module}.{binding.attr}"
            if bound in mutables_by_module:
                remote = mutables_by_module[bound]
                if expr.attr in remote:
                    return f"{bound}.{expr.attr}"
        return None

    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS):
                name = classify_target(func.value)
                if name is not None:
                    yield name, child.lineno, f"calls .{func.attr}() on"
        elif isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target])
            for target in targets:
                if isinstance(target, ast.Subscript):
                    name = classify_target(target.value)
                    if name is not None:
                        yield name, child.lineno, "stores into"
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                if isinstance(target, ast.Subscript):
                    name = classify_target(target.value)
                    if name is not None:
                        yield name, child.lineno, "deletes from"

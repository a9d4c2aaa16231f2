"""The REPRO00x static-analysis rule set.

Every rule is a pluggable :class:`Rule` subclass with an ``id``, a
``severity`` (``error`` or ``warning``) and an optional path ``scopes``
tuple restricting where it fires (keys are package-relative, see
:func:`repro.lint.engine.scope_key`).  To add a rule: subclass
:class:`Rule`, implement :meth:`Rule.check`, and append an instance to
:data:`ALL_RULES`.

| id       | checks                                                        |
|----------|---------------------------------------------------------------|
| REPRO001 | unseeded ``random.*`` / ``numpy.random.*`` use                |
| REPRO002 | float ``==`` / ``!=`` in cycle/metric code                    |
| REPRO003 | magic size/latency literals bypassing ``repro.units``/params  |
| REPRO004 | mutable default args & shared mutable class attributes        |
| REPRO005 | bare ``except:`` / silently swallowed exceptions              |
| REPRO006 | wall-clock or filesystem-order nondeterminism in sim paths    |
| REPRO007 | broad ``except Exception`` in engine code outside resilience  |
| REPRO008 | module-level tracer/sink singletons (observability must be    |
|          | injected per context, never ambient global state)             |
| REPRO011 | unbounded blocking waits (``.wait()``/``.get()``/             |
|          | ``.acquire()`` with no arguments) in engine code              |

One further rule, REPRO010 (worker safety), is a *whole-program*
analysis over the import/call graph; it lives in
:mod:`repro.lint.soundness` rather than here because it checks
relationships between files, not patterns within one.  The
interprocedural taint pass in :mod:`repro.lint.flow` additionally
re-reports REPRO001/REPRO006 findings that are only visible through the
call graph (a sim-path function reaching ``time.time()`` via helpers in
unscoped modules).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.lint.engine import Violation
from repro.lint.graph import dotted_name
from repro.units import is_power_of_two


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class Rule:
    """Base class for one lint rule."""

    id: str = "REPRO000"
    severity: str = "error"
    #: Package-relative path prefixes this rule is restricted to
    #: (None = fires everywhere).
    scopes: Optional[Tuple[str, ...]] = None
    #: Package-relative paths exempt from the rule.
    excludes: Tuple[str, ...] = ()
    description: str = ""

    def applies_to(self, scope: str) -> bool:
        if any(scope == ex or scope.startswith(ex) for ex in self.excludes):
            return False
        if self.scopes is None:
            return True
        return any(scope.startswith(prefix) for prefix in self.scopes)

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        raise NotImplementedError

    def violation(self, node: ast.AST, path: str, message: str) -> Violation:
        return Violation(
            rule_id=self.id,
            severity=self.severity,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class UnseededRandomness(Rule):
    """REPRO001: module-level RNG use breaks bit-reproducibility.

    Every stochastic component must draw from an explicitly seeded
    ``random.Random(seed)`` / ``numpy.random.default_rng(seed)`` instance;
    the module-level convenience APIs share hidden global state.
    """

    id = "REPRO001"
    severity = "error"
    description = ("unseeded random.* / numpy.random.* use; draw from an "
                   "explicitly seeded generator instance instead")

    #: Constructors that are fine *if* given an explicit seed argument.
    _SEEDED_FACTORIES = frozenset({
        "Random", "default_rng", "RandomState", "Generator", "SeedSequence",
        "PCG64", "Philox", "MT19937", "SFC64", "BitGenerator",
    })

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        numpy_aliases = {"numpy"}
        factory_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                violations.extend(
                    self._check_import_from(node, path, factory_aliases))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                violations.extend(
                    self._check_call(node, path, numpy_aliases,
                                     factory_aliases))
        return violations

    def _check_import_from(self, node: ast.ImportFrom, path: str,
                           factory_aliases: Set[str]) -> List[Violation]:
        violations: List[Violation] = []
        if node.module == "random" or node.module == "numpy.random":
            for alias in node.names:
                if alias.name in self._SEEDED_FACTORIES:
                    factory_aliases.add(alias.asname or alias.name)
                else:
                    violations.append(self.violation(
                        node, path,
                        f"importing {alias.name!r} from {node.module} pulls "
                        f"in shared global RNG state; use a seeded "
                        f"Random(seed)/default_rng(seed) instance",
                    ))
        return violations

    def _check_call(self, node: ast.Call, path: str,
                    numpy_aliases: Set[str],
                    factory_aliases: Set[str]) -> List[Violation]:
        has_args = bool(node.args) or bool(node.keywords)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in factory_aliases and not has_args:
                return [self.violation(
                    node, path,
                    f"{func.id}() constructed without a seed; pass an "
                    f"explicit seed for reproducible runs",
                )]
            return []
        dotted = dotted_name(func)
        if dotted is None:
            return []
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            return self._flag_module_fn(node, path, "random", parts[1],
                                        has_args)
        if (parts[0] in numpy_aliases and len(parts) == 3
                and parts[1] == "random"):
            return self._flag_module_fn(node, path, f"{parts[0]}.random",
                                        parts[2], has_args)
        return []

    def _flag_module_fn(self, node: ast.Call, path: str, module: str,
                        fn: str, has_args: bool) -> List[Violation]:
        if fn in self._SEEDED_FACTORIES:
            if has_args:
                return []
            return [self.violation(
                node, path,
                f"{module}.{fn}() constructed without a seed; pass an "
                f"explicit seed for reproducible runs",
            )]
        return [self.violation(
            node, path,
            f"{module}.{fn}() uses hidden global RNG state; draw from a "
            f"seeded Random(seed)/default_rng(seed) instance instead",
        )]


class FloatEquality(Rule):
    """REPRO002: exact float comparison in cycle/metric code.

    Cycle counts and metrics are floats accumulated in different orders
    across refactors; exact equality silently flips.  Compare with
    ``math.isclose`` or an explicit tolerance.
    """

    id = "REPRO002"
    severity = "error"
    scopes = ("sim/", "analysis/", "experiments/")
    description = ("float == / != comparison in cycle/metric code; use "
                   "math.isclose or an explicit tolerance")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    violations.append(self.violation(
                        node, path,
                        f"exact float {symbol} comparison; use "
                        f"math.isclose(...) or compare against a tolerance",
                    ))
        return violations


class MagicNumber(Rule):
    """REPRO003: size/latency literals in ``sim/`` bypassing the
    ``repro.units`` constants and ``sim/params.py``.

    Flags integer literals that look like cache/buffer sizes (>= 1KB and a
    multiple of 1024 or a power of two).  Hash/mixing constants are odd by
    construction and never trip this.  ALL_CAPS module-level constant
    definitions are exempt: naming the number *is* the fix.
    """

    id = "REPRO003"
    severity = "warning"
    scopes = ("sim/",)
    excludes = ("sim/params.py",)
    description = ("magic size/latency literal; use repro.units (KB/MB/"
                   "LINE_SIZE) or a sim.params constant")

    _THRESHOLD = 1024

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        exempt = self._constant_definition_nodes(tree)
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant)
                    and type(node.value) is int):
                continue
            if id(node) in exempt:
                continue
            value = node.value
            if value < self._THRESHOLD:
                continue
            if value % 1024 == 0 or is_power_of_two(value):
                violations.append(self.violation(
                    node, path,
                    f"magic size/latency literal {value}; express it via "
                    f"repro.units (KB/MB/LINE_SIZE) or a named "
                    f"sim.params constant",
                ))
        return violations

    @staticmethod
    def _constant_definition_nodes(tree: ast.Module) -> Set[int]:
        """ids of Constant nodes inside module-level ALL_CAPS assignments."""
        exempt: Set[int] = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names and all(name.isupper() or name.startswith("_")
                             for name in names):
                value = stmt.value if isinstance(stmt, ast.Assign) else stmt.value
                for child in ast.walk(value):
                    if isinstance(child, ast.Constant):
                        exempt.add(id(child))
        return exempt


class MutableDefault(Rule):
    """REPRO004: mutable default arguments and shared mutable class
    attributes.

    A ``def f(acc=[])`` default or a ``history = []`` class attribute is
    one object shared by every call/instance -- state leaks straight
    across invocations and kills run-to-run reproducibility.
    """

    id = "REPRO004"
    severity = "error"
    description = ("mutable default argument / shared mutable class "
                   "attribute; default to None or use "
                   "field(default_factory=...)")

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict",
                      "OrderedDict", "Counter", "deque"})

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                for default in list(args.defaults) + list(args.kw_defaults):
                    if default is not None and self._is_mutable(default):
                        violations.append(self.violation(
                            default, path,
                            "mutable default argument is shared across "
                            "calls; default to None and create it inside "
                            "the function",
                        ))
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    value = None
                    targets: List[ast.expr] = []
                    if isinstance(stmt, ast.Assign):
                        value = stmt.value
                        targets = stmt.targets
                    elif isinstance(stmt, ast.AnnAssign):
                        value = stmt.value
                        targets = [stmt.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                    if names and all(n.lstrip("_").isupper() for n in names):
                        continue  # ALL_CAPS class constant by convention
                    if value is not None and self._is_mutable(value):
                        violations.append(self.violation(
                            value, path,
                            f"mutable class attribute on {node.name!r} is "
                            f"shared by every instance; initialise it in "
                            f"__init__ or use field(default_factory=...)",
                        ))
        return violations

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and not node.args and not node.keywords:
            name = node.func.id if isinstance(node.func, ast.Name) else None
            return name in self._MUTABLE_CALLS
        return False


class SwallowedException(Rule):
    """REPRO005: bare ``except:`` or handlers that silently discard the
    exception in record/replay and experiment-driver code.

    A swallowed exception turns a corrupted run into a silently wrong
    figure.  Handle a *specific* exception and act on it, or let it
    propagate.
    """

    id = "REPRO005"
    severity = "error"
    scopes = ("core/", "experiments/")
    description = ("bare except / silently swallowed exception; catch a "
                   "specific type and handle or re-raise it")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                violations.append(self.violation(
                    node, path,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exception type",
                ))
            elif self._swallows(node):
                violations.append(self.violation(
                    node, path,
                    "exception handler silently discards the error; handle "
                    "it, log it, or re-raise",
                ))
        return violations

    @staticmethod
    def _swallows(node: ast.ExceptHandler) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Pass):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring / ellipsis
            return False
        return True


class WallClock(Rule):
    """REPRO006: wall-clock and filesystem-order nondeterminism in
    simulation paths.

    Simulated time is the only clock the simulator may read; host time and
    unsorted directory listings make runs non-reproducible.
    """

    id = "REPRO006"
    severity = "error"
    #: ``server/`` and ``experiments/`` sit directly on the simulation
    #: path (stressors mutate hierarchy state; experiment builders are the
    #: engine's memoized cell bodies), so host-clock reads there are just
    #: as result-corrupting as inside ``sim/``.  ``fleet/`` joined with
    #: the region simulator: shard results are content-addressed cache
    #: entries, so any host-clock read there poisons the cache.
    #: ``coldstart/`` joined with the spectrum model: restore and init
    #: charges land inside memoized spectrum cells, so they must be pure
    #: arithmetic over profiles -- never host-time measurements.
    scopes = ("sim/", "core/", "analysis/", "workloads/", "engine/",
              "obs/", "server/", "experiments/", "fleet/", "coldstart/")
    description = ("wall-clock / nondeterministic call in a simulation "
                   "path; use simulated cycles and sorted listings")

    _CLOCK_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom", "uuid.uuid1", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    })
    _LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        sorted_args = self._directly_sorted_calls(tree)
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in self._CLOCK_CALLS:
                violations.append(self.violation(
                    node, path,
                    f"{dotted}() reads host state; simulation code must "
                    f"use simulated cycles / seeded entropy",
                ))
            elif dotted in self._LISTING_CALLS and id(node) not in sorted_args:
                violations.append(self.violation(
                    node, path,
                    f"{dotted}() returns entries in filesystem order; wrap "
                    f"it in sorted(...)",
                ))
        return violations

    @staticmethod
    def _directly_sorted_calls(tree: ast.Module) -> Set[int]:
        """ids of Call nodes appearing as the first arg of ``sorted(...)``."""
        wrapped: Set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sorted" and node.args):
                wrapped.add(id(node.args[0]))
        return wrapped


class BroadExceptInEngine(Rule):
    """REPRO007: broad exception handlers in sweep-engine code.

    The engine's failure semantics depend on errors reaching exactly one
    chokepoint: ``resilience.execute_task`` captures *everything* into a
    typed :class:`~repro.engine.resilience.JobError` so the taxonomy can
    classify it.  A broad ``except Exception`` (or bare ``except``, or
    ``except BaseException``) anywhere else in ``engine/`` would swallow
    failures before that capture, mis-counting stats and silently
    converting crashes into wrong results -- so ``resilience.py`` is the
    only file allowed to catch broadly.

    The observability layer (``obs/``) is held to the same bar: a tracer
    or summarizer that swallowed an error would report a clean run that
    was not.
    """

    id = "REPRO007"
    severity = "error"
    scopes = ("engine/", "obs/")
    excludes = ("engine/resilience.py",)
    description = ("broad except Exception / bare except in engine code; "
                   "only resilience.execute_task may capture broadly")

    _BROAD_NAMES = frozenset({"Exception", "BaseException"})

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                violations.append(self.violation(
                    node, path,
                    "bare except in engine code swallows failures before "
                    "the resilience layer can classify them; catch a "
                    "specific exception type",
                ))
                continue
            for name in self._broad_names_in(node.type):
                violations.append(self.violation(
                    node, path,
                    f"except {name} in engine code swallows failures "
                    f"before the resilience layer can classify them; "
                    f"catch a specific exception type (only "
                    f"engine/resilience.py may capture broadly)",
                ))
        return violations

    def _broad_names_in(self, type_node: ast.expr) -> List[str]:
        nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        names: List[str] = []
        for node in nodes:
            dotted = dotted_name(node)
            if dotted is not None and dotted in self._BROAD_NAMES:
                names.append(dotted)
        return names


class GlobalObservability(Rule):
    """REPRO008: module-level tracer/sink singletons.

    Observability state must be *injected*: a tracer or trace sink
    constructed at module level is ambient global state -- two engine
    contexts would interleave their event streams, imports would mutate
    shared counters, and a test could never isolate the trace of the run
    under test.  Construct observability objects inside a context
    (``engine.configure``), a fixture, or a ``field(default_factory=...)``
    -- never at import time.

    Cold-start models are policed the same way: a
    :class:`~repro.coldstart.model.SpectrumColdStart` (and the
    :class:`PageReplayState`/:class:`SnapshotState` it owns) carries the
    recorded page trace as mutable per-instance state, so a module-level
    model shared across simulations would leak one run's working-set
    recording into the next and break cache soundness.
    """

    id = "REPRO008"
    severity = "error"
    description = ("module-level Tracer/sink/cold-start model or "
                   "snapshot singleton; stateful collaborators must be "
                   "injected per context, not ambient global state")

    _OBS_FACTORIES = frozenset({
        "Tracer", "NullTracer", "JsonlSink",
        # Cold-start model state (recorded page traces, snapshot images)
        # is per-simulation; module-level construction shares it.
        "SpectrumColdStart", "PageReplayState", "SnapshotState",
    })

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        # Only module-level statements are singleton definitions; the same
        # constructor inside a function, method, or field(default_factory=)
        # builds per-context state and is exactly what we want.
        for stmt in tree.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if value is None:
                continue
            for call in ast.walk(value):
                if not isinstance(call, ast.Call):
                    continue
                name = self._factory_name(call.func)
                if name is not None:
                    violations.append(self.violation(
                        call, path,
                        f"module-level {name}() creates an ambient "
                        f"stateful singleton; construct it inside an "
                        f"engine context, fixture, or default_factory "
                        f"instead",
                    ))
        return violations

    def _factory_name(self, func: ast.expr) -> Optional[str]:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        leaf = dotted.rsplit(".", 1)[-1]
        return leaf if leaf in self._OBS_FACTORIES else None


class UnboundedBlockingWait(Rule):
    """REPRO011: argument-less blocking waits in engine code.

    The deadline guard (PR 8) can only bound a sweep in time if no code
    path under ``engine/`` can block forever between watchdog polls.  A
    zero-argument ``.wait()`` / ``.get()`` / ``.acquire()`` on a pool
    result, queue, event, or lock blocks indefinitely -- one wedged
    worker and the parent hangs with it, deadline or no deadline.  Every
    such wait must state its bound (``result.get(poll_interval)``) or
    make its blocking mode an explicit argument
    (``lock.acquire(blocking=True)``): passing *anything* proves the
    author chose the blocking behaviour instead of inheriting it.

    Only zero-argument calls are flagged, so ``dict.get(key)`` and
    friends never trip the rule.
    """

    id = "REPRO011"
    severity = "error"
    scopes = ("engine/",)
    description = ("argument-less .wait()/.get()/.acquire() blocks forever "
                   "and defeats the deadline guard; pass a timeout or an "
                   "explicit blocking mode")

    _BLOCKING_METHODS = frozenset({"wait", "get", "acquire"})

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and not node.args
                    and not node.keywords
                    and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in self._BLOCKING_METHODS:
                continue
            violations.append(self.violation(
                node, path,
                f".{method}() with no arguments can block forever and "
                f"defeats the deadline guard; pass a timeout (e.g. "
                f".{method}(poll_interval)) or an explicit blocking mode",
            ))
        return violations


#: The registry walked by the engine and CLI, in id order.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomness(),
    FloatEquality(),
    MagicNumber(),
    MutableDefault(),
    SwallowedException(),
    WallClock(),
    BroadExceptInEngine(),
    GlobalObservability(),
    UnboundedBlockingWait(),
)


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by its ``REPRO00x`` id."""
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown lint rule {rule_id!r}")

"""Span recording for the traced run, from outside the program.

:func:`install` swaps the program's layer-boundary callables for thin
wrappers that record one span per call into a :class:`Recorder`, and
:func:`uninstall` puts the original objects back.  Nothing under ``src/``
is edited: module-level functions are rebound in every loaded ``repro``
module that imported them, methods are replaced on their class.

A span is a dict with ``id``, ``name``, ``pid``, ``parent`` (the
enclosing span in the same process), ``cell`` (the enclosing simulation
cell, if any), ``start`` and ``end`` (``time.perf_counter``, which is
CLOCK_MONOTONIC and so comparable across processes) plus a few
name-specific counts.

Pool workers record too.  The engine's task entry point is replaced by
:func:`pool_entry`, which the pool pickles by reference: a forked worker
inherits the installed wrappers (its recorder is emptied after the
fork), a spawned one installs them on its first task.  Workers append
their spans to ``$PERFBENCH_SPOOL/<pid>.jsonl`` after every task,
because a pool terminates its workers without running exit handlers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Environment variable naming the directory spans are spooled to.
SPOOL_ENV = "PERFBENCH_SPOOL"


class Recorder:
    """The spans of one process, kept in memory until spooled."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start empty (also run in a freshly forked worker)."""
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._ids = itertools.count()
        #: ``{"id", "config"}`` of the simulation cell being executed.
        self.cell: Optional[Dict[str, Any]] = None
        #: Engine task index of the cell about to run (set by pool_entry).
        self.task_index: Optional[int] = None
        #: Calls of ``MemoryHierarchy.access_instr`` (the scalar path).
        self.scalar_fetches = 0

    def open(self, name: str) -> Dict[str, Any]:
        span = {"id": f"{self.pid}-{next(self._ids)}", "name": name,
                "pid": self.pid,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "cell": self.cell["id"] if self.cell else None,
                "start": clock()}
        self._stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = clock()
        self._stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span the caller timed itself."""
        self.spans.append({"id": f"{self.pid}-{next(self._ids)}",
                           "name": name, "pid": self.pid, "parent": None,
                           "cell": None, "start": start, "end": end})

    def spool(self, directory: Path) -> None:
        """Append the recorded spans to this process's spool file."""
        spans, self.spans = self.spans, []
        with open(directory / f"{self.pid}.jsonl", "a") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_spool(directory: Path) -> List[Dict[str, Any]]:
    """Every span spooled under ``directory``, ordered by start time."""
    spans = []
    for path in sorted(directory.glob("*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    spans.sort(key=lambda s: (s["start"], s["end"]))
    return spans


# -- wrappers ----------------------------------------------------------------

#: ``annotate(span, args, result, prepared)`` adds counts to a closed span.
Annotate = Callable[[Dict[str, Any], tuple, Any, Any], None]


def _span_wrapper(recorder: Recorder, name: str, fn: Callable,
                  annotate: Optional[Annotate] = None,
                  prepare: Optional[Callable[[], Any]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        prepared = prepare() if prepare is not None else None
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if annotate is not None:
            annotate(span, args, result, prepared)
        return result
    return wrapper


def cell_config(job: Any) -> str:
    """The simulation protocol a cell runs: its registry config, with
    spectrum points resolved to the protocol their regime delegates to."""
    if job.config != "spectrum_point":
        return str(job.config)
    from repro.experiments.ext_spectrum import DEFAULT_TTL_MS, classify_regime

    opts = job.opts_dict()
    regime = classify_regime(opts.get("iat_ms", 0.0),
                             opts.get("ttl_ms", DEFAULT_TTL_MS))
    if regime == "warm":
        return "reference"
    if regime == "lukewarm":
        return "jukebox" if opts.get("jukebox") else "baseline"
    return "cold"


def _cell_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def execute_job(job: Any) -> Any:
        config = cell_config(job)
        outer = recorder.cell
        span = recorder.open("engine.cell")
        span.update(cell=span["id"], config=config,
                    label=f"{job.describe()}{list(job.opts)}",
                    index=recorder.task_index)
        recorder.cell = {"id": span["id"], "config": config}
        try:
            return fn(job)
        finally:
            recorder.close(span)
            recorder.cell = outer
    return execute_job


def _counting_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def access_instr(self: Any, addr: int, cycle: float) -> Any:
        recorder.scalar_fetches += 1
        return fn(self, addr, cycle)
    return access_instr


def _note_trace(span: Dict[str, Any], args: tuple, result: Any,
                _prepared: Any) -> None:
    model, index = args[0], args[1]
    profile = model.profile
    span["key"] = (f"{profile.abbrev}/{model.seed}/{index}/"
                   f"{profile.instructions}")
    span["events"] = len(result)


def _note_ir(span: Dict[str, Any], args: tuple, _result: Any,
             _prepared: Any) -> None:
    span["events"] = len(args[1])


def _sim_annotator(recorder: Recorder) -> Annotate:
    def note(span: Dict[str, Any], args: tuple, result: Any,
             scalar_before: int) -> None:
        span["events"] = len(args[1])
        span["fetches"] = sum(result.fetch_sources.values())
        span["scalar"] = recorder.scalar_fetches - scalar_before
        span["instructions"] = result.instructions
        span["config"] = recorder.cell["config"] if recorder.cell else None
    return note


def _note_get(span: Dict[str, Any], _args: tuple, result: Any,
              _prepared: Any) -> None:
    span["hit"] = bool(result[0])


def _note_put(span: Dict[str, Any], args: tuple, result: Any,
              _prepared: Any) -> None:
    span["stored"] = bool(result)
    span["bytes"] = 0
    if result:
        try:
            span["bytes"] = args[0].path_for(args[1]).stat().st_size
        except OSError:
            pass


def _note_server(span: Dict[str, Any], _args: tuple, result: Any,
                 _prepared: Any) -> None:
    span["arrivals"] = result.arrivals
    span["invocations"] = result.invocations


@dataclass(frozen=True)
class Patch:
    """One rebound name: ``owner.name`` held ``original`` before."""

    owner: Any
    name: str
    original: Any


def _rebind_everywhere(original: Any, replacement: Any) -> List[Patch]:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (callers resolve module globals at call time)."""
    patches = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append(Patch(module, attr, original))
                setattr(module, attr, replacement)
    return patches


def _replace_method(cls: type, name: str,
                    make: Callable[[Callable], Callable]) -> Patch:
    original = cls.__dict__[name]
    if isinstance(original, classmethod):
        setattr(cls, name, classmethod(make(original.__func__)))
    else:
        setattr(cls, name, make(original))
    return Patch(cls, name, original)


def _resolve(path: str) -> Any:
    module, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


#: (class, method, span name) of every wrapped method.
METHOD_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.function:FunctionModel", "invocation_trace",
     "workloads.tracegen"),
    ("repro.workloads.trace:ColumnarTrace", "from_trace", "ir.compile"),
    ("repro.sim.core:Simulator", "run", "sim.run"),
    ("repro.core.jukebox:Jukebox", "begin_invocation", "core.jukebox"),
    ("repro.core.jukebox:Jukebox", "end_invocation", "core.jukebox"),
    ("repro.engine.job:Job", "key", "engine.key"),
    ("repro.engine.cache:ResultCache", "get", "engine.cache_get"),
    ("repro.engine.cache:ResultCache", "put", "engine.cache_put"),
    ("repro.server.server:ServerSimulator", "run", "server.run"),
)

#: (function, span name) of every module-level function wrapped wherever
#: a ``repro`` module binds it.
FUNCTION_SPANS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.runner:run_experiment", "experiments.run"),
    ("repro.engine.sweep:sweep_outcomes", "engine.sweep"),
    ("repro.fleet.plan:plan_region", "fleet.plan"),
    ("repro.fleet.result:aggregate_nodes", "fleet.aggregate"),
)

_ANNOTATORS: Dict[str, Annotate] = {
    "workloads.tracegen": _note_trace,
    "ir.compile": _note_ir,
    "engine.cache_get": _note_get,
    "engine.cache_put": _note_put,
    "server.run": _note_server,
}


def coldstart_models() -> List[type]:
    """Every cold-start model class that implements ``cold_start``."""
    from repro.coldstart.model import ColdStartModel

    found, todo = [], list(ColdStartModel.__subclasses__())
    while todo:
        cls = todo.pop(0)
        todo.extend(cls.__subclasses__())
        if "cold_start" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def install(recorder: Recorder) -> List[Patch]:
    """Wrap every layer boundary; returns the patches :func:`uninstall`
    reverts.  Imports the wrapped modules if they are not loaded yet."""
    patches: List[Patch] = []
    for path, method, name in METHOD_SPANS:
        if name == "sim.run":
            make = functools.partial(
                _span_wrapper, recorder, name,
                annotate=_sim_annotator(recorder),
                prepare=lambda: recorder.scalar_fetches)
        else:
            make = functools.partial(_span_wrapper, recorder, name,
                                     annotate=_ANNOTATORS.get(name))
        patches.append(_replace_method(_resolve(path), method, make))
    for cls in coldstart_models():
        patches.append(_replace_method(
            cls, "cold_start",
            functools.partial(_span_wrapper, recorder, "coldstart.charge")))
    patches.append(_replace_method(
        _resolve("repro.sim.hierarchy:MemoryHierarchy"), "access_instr",
        functools.partial(_counting_wrapper, recorder)))
    for path, name in FUNCTION_SPANS:
        original = _resolve(path)
        patches.extend(_rebind_everywhere(
            original, _span_wrapper(recorder, name, original)))
    execute_job = _resolve("repro.engine.executors:execute_job")
    patches.extend(_rebind_everywhere(
        execute_job, _cell_wrapper(recorder, execute_job)))
    # The executors hand this name to the pool, which pickles it by
    # reference; the serial executor calls it in-process.
    executors = importlib.import_module("repro.engine.executors")
    patches.append(Patch(executors, "execute_task", executors.execute_task))
    executors.execute_task = pool_entry
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    """Restore every original object, newest patch first."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.name, patch.original)


# -- process-wide state for the pool entry point -----------------------------

#: The recorder the installed wrappers feed in this process.  The task
#: entry point travels to pool workers by reference and carries no state,
#: so a worker finds (or, when spawned, creates) its recorder here.
_ACTIVE: Optional[Recorder] = None
_FORK_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.reset()


class Tracing:
    """Context manager: record spans into a fresh :class:`Recorder`
    while active; every original is restored on exit."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.patches: List[Patch] = []

    def __enter__(self) -> "Tracing":
        global _ACTIVE, _FORK_HOOKED
        if _ACTIVE is not None:
            raise RuntimeError("span tracing is already active")
        if not _FORK_HOOKED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOKED = True
        self.patches = install(self.recorder)
        _ACTIVE = self.recorder
        return self

    def __exit__(self, *exc: Any) -> None:
        global _ACTIVE
        uninstall(self.patches)
        self.patches = []
        _ACTIVE = None


def pool_entry(task: Any) -> Any:
    """The engine's task entry point while tracing (pool and serial).

    Tags the cell span with the task's index and, in a pool worker,
    spools the worker's spans once the task is done.
    """
    from repro.engine.resilience import execute_task

    global _ACTIVE
    if _ACTIVE is None:  # a spawned worker: install on first use
        _ACTIVE = Recorder()
        install(_ACTIVE)
    recorder = _ACTIVE
    recorder.task_index = task.index
    try:
        return execute_task(task)
    finally:
        recorder.task_index = None
        if multiprocessing.parent_process() is not None:
            recorder.spool(Path(os.environ[SPOOL_ENV]))

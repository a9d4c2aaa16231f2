"""The sweep API: memoized, order-preserving execution of job batches.

Experiments describe their cells as :class:`~repro.engine.job.Job` values
and call :func:`sweep`; the active :class:`EngineContext` decides *how*
they run (serial or a process pool), *whether* results are served from
the content-addressed :class:`~repro.engine.cache.ResultCache`, and *how
often failing cells are retried* (a
:class:`~repro.engine.resilience.FailurePolicy`, optionally driven by an
injected :class:`~repro.faults.FaultPlan`).  Contexts nest via
:func:`configure`, so the runner (or a test) can switch the whole
experiment layer to ``--jobs 4`` plus an on-disk cache without threading
parameters through sixteen ``run()`` signatures.

Failure semantics: every completed cell is checkpointed into the cache
the moment it finishes, so an aborted sweep -- a raising cell, a crashed
pool, a ``KeyboardInterrupt`` -- resumes warm on rerun, simulating only
what never completed.  Transient failures are re-run up to the policy's
retry count with deterministic seeded backoff.  :func:`sweep` then
re-raises the first failure (with its remote traceback attached) after
the batch drains; :func:`sweep_outcomes` returns the full list of typed
:class:`~repro.engine.resilience.JobOutcome` values instead.

Engine code never reads host time (REPRO006): wall-clock accounting for
the runner's footer comes from an injected ``clock`` callable, backoff
delays are pure functions of ``(seed, index, attempt)`` applied through
an injected ``sleep``, and both stay inert when none is configured.
"""

from __future__ import annotations

import importlib
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.engine.cache import ResultCache
from repro.engine.executors import SerialExecutor, get_executor
from repro.engine.guard import GuardSpec, GuardState
from repro.engine.job import Job
from repro.engine.resilience import (
    FailurePolicy,
    JobOutcome,
    Task,
    run_with_policy,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.lint import contracts
from repro.obs import records as _obs
from repro.obs.tracer import JsonlSink, Tracer


@dataclass
class SweepStats:
    """Cumulative counters of one engine context, surfaced by the runner."""

    jobs: int = 0
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Cells whose final outcome was a failure.
    failures: int = 0
    #: Extra attempts scheduled by a retry policy.
    retries: int = 0
    #: Seconds spent simulating cache misses (via the injected clock).
    sim_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.jobs if self.jobs else 0.0

    def snapshot(self) -> "SweepStats":
        return replace(self)

    def since(self, earlier: "SweepStats") -> "SweepStats":
        """The delta accumulated after ``earlier`` was snapshotted."""
        return SweepStats(
            jobs=self.jobs - earlier.jobs,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            failures=self.failures - earlier.failures,
            retries=self.retries - earlier.retries,
            sim_seconds=self.sim_seconds - earlier.sim_seconds,
        )

    def describe(self) -> str:
        if not self.jobs:
            return "engine: no simulation cells"
        parts = [f"engine: {self.jobs} cells, {self.hits} cached, "
                 f"{self.misses} simulated"]
        if self.retries:
            parts.append(f", {self.retries} retried")
        if self.failures:
            parts.append(f", {self.failures} FAILED")
        if self.sim_seconds > 0:
            parts.append(f" in {self.sim_seconds:.1f}s")
        return "".join(parts)


@dataclass
class EngineContext:
    """Executor + cache + policy + counters governing :func:`sweep` calls."""

    executor: Any = field(default_factory=SerialExecutor)
    cache: Optional[ResultCache] = None
    stats: SweepStats = field(default_factory=SweepStats)
    #: Optional monotonic-seconds callable (e.g. ``time.perf_counter``),
    #: injected by the CLI layer; the engine itself never reads host time.
    clock: Optional[Callable[[], float]] = None
    #: Retry policy of every sweep in this context.
    policy: FailurePolicy = field(default_factory=FailurePolicy)
    #: Deterministic fault-injection plan (tests, ``--inject-fault``).
    faults: Optional[FaultPlan] = None
    #: Callable applying retry-backoff delays (e.g. ``time.sleep``); the
    #: deterministic delay *values* are computed either way, only their
    #: real-time application is optional.
    sleep: Optional[Callable[[float], None]] = None
    #: The always-on in-memory event collector (``repro.obs``).  Injected
    #: per context -- never a module-level singleton (REPRO008) -- and
    #: timestamped only by the context's injected ``clock``, so jobs and
    #: cache keys never observe it.
    tracer: Any = field(default_factory=Tracer)
    #: Deadline budgets (:class:`~repro.engine.guard.GuardSpec`); a
    #: non-empty spec requires an injected ``clock`` and arms one
    #: :class:`~repro.engine.guard.GuardState` per sweep batch.
    guard: Optional[GuardSpec] = None


#: The zero-configuration default context (serial, uncached), shared by
#: every thread that never calls :func:`configure`.
_ROOT_CONTEXT = EngineContext()

#: Innermost active context.  A :class:`~contextvars.ContextVar` rather
#: than a module-global stack keeps nesting innermost-wins *per thread*
#: (and per asyncio task): one thread's ``configure()`` exit can never
#: pop a context that another thread pushed.
_CONTEXT: ContextVar[EngineContext] = ContextVar(
    "repro_engine_context", default=_ROOT_CONTEXT)


def current_context() -> EngineContext:
    """The innermost active :class:`EngineContext`."""
    return _CONTEXT.get()  # repro-lint: disable=REPRO011 -- ContextVar read, never blocks


@contextmanager
def configure(jobs: int = 1,
              cache_dir: Optional[Union[str, Path]] = None,
              clock: Optional[Callable[[], float]] = None,
              policy: Optional[FailurePolicy] = None,
              faults: Any = None,
              sleep: Optional[Callable[[float], None]] = None,
              tracer: Any = None,
              trace_path: Optional[Union[str, Path]] = None,
              job_timeout_s: Optional[float] = None,
              sweep_deadline_s: Optional[float] = None,
              ) -> Iterator[EngineContext]:
    """Activate an engine context for the duration of the ``with`` block.

    Observability wiring: pass an explicit ``tracer`` to observe through
    it, or just a ``trace_path`` to get a fresh tracer writing canonical
    JSONL there (closed -- flushed -- when the block exits).  With
    neither, the context still carries an in-memory tracer so the footer
    always has counters to read.  Trace timestamps come from ``clock``;
    with no clock configured, events carry ``t: null`` and the trace is
    fully deterministic.

    Deadlines: ``job_timeout_s`` bounds one dispatch (hung workers are
    killed and the cell retried per policy), ``sweep_deadline_s`` bounds
    each sweep batch.  Both are measured on the injected ``clock``
    (required when either is set -- the engine never reads host time).

    A ``cache_dir`` cache is *opened* for the block -- orphaned temp
    files reaped, the shared cross-process advisory lock taken -- and its
    lock released on exit.  The cache root is made before a
    ``trace_path`` file is opened, which empties it, so an unusable root
    leaves an existing trace as it was; whatever the call opened is closed
    again when a later step fails.
    """
    if tracer is not None and trace_path is not None:
        raise ConfigurationError(
            "pass either tracer= or trace_path=, not both; attach a "
            "JsonlSink to your tracer instead")
    guard_spec = GuardSpec(job_timeout_s=job_timeout_s,
                           sweep_deadline_s=sweep_deadline_s)
    if guard_spec and clock is None:
        raise ConfigurationError(
            "job_timeout_s/sweep_deadline_s need an injected clock; pass "
            "clock= (e.g. time.monotonic, or TickClock in tests)")
    with ExitStack() as opened:
        if cache_dir is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        if tracer is None:
            sinks = (JsonlSink(trace_path),) if trace_path is not None else ()
            tracer = Tracer(clock=clock, sinks=sinks)
            opened.callback(tracer.close)
        cache = None
        if cache_dir is not None:
            cache = ResultCache(cache_dir, tracer=tracer).open()
            opened.callback(cache.close)
        ctx = EngineContext(
            executor=get_executor(jobs, tracer=tracer),
            cache=cache, clock=clock,
            policy=policy if policy is not None else FailurePolicy(),
            faults=FaultPlan.coerce(faults), sleep=sleep,
            tracer=tracer, guard=guard_spec if guard_spec else None)
        opened.callback(_CONTEXT.reset, _CONTEXT.set(ctx))
        yield ctx


def sweep_outcomes(jobs: Sequence[Job],
                   context: Optional[EngineContext] = None,
                   ) -> List[JobOutcome]:
    """Execute a batch of jobs, returning typed outcomes in submission order.

    Never raises on a cell failure: each cell yields a
    :class:`~repro.engine.resilience.JobOutcome` carrying its value or its
    per-attempt error records (remote tracebacks included).  Cache hits
    are filled in first; the providers of the remaining misses are
    imported, then the misses go to the context's executor as one batch,
    retried per the context's policy, and every *successful* result is
    checkpointed into the cache as soon as it completes -- an aborted run
    resumes warm.
    """
    jobs = list(jobs)
    ctx = context if context is not None else current_context()
    stats = ctx.stats
    tracer = ctx.tracer
    tracing = tracer is not None and tracer.enabled
    before = stats.snapshot()
    if tracing:
        tracer.emit(_obs.SWEEP_BEGIN, jobs=len(jobs),
                    retries=ctx.policy.retries)
    stats.jobs += len(jobs)
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    pending: List[Task] = []
    keys: Dict[int, str] = {}
    for i, job in enumerate(jobs):
        if ctx.cache is not None:
            key = job.key()
            keys[i] = key
            if ctx.faults is not None and ctx.faults.should_corrupt(job, i):
                ctx.cache.corrupt(key)
            hit, value = ctx.cache.get(key)
            if hit:
                outcomes[i] = JobOutcome(job=job, index=i, ok=True,
                                         value=value, from_cache=True)
                stats.hits += 1
                continue
        pending.append(Task(job=job, index=i, faults=ctx.faults))

    def checkpoint(task: Task, outcome: JobOutcome) -> None:
        """Record each completed attempt the moment it finishes."""
        if task.attempt == 0:
            stats.misses += 1
        if outcome.ok and ctx.cache is not None:
            key = keys[task.index]
            if ctx.faults is not None:
                code = ctx.faults.store_errno(task.job, task.index)
                if code is not None:
                    ctx.cache.induce_store_error(code)
            if ctx.cache.put(key, outcome.value):
                stats.stores += 1
                if (ctx.faults is not None
                        and ctx.faults.should_tear(task.job, task.index)):
                    ctx.cache.tear(key)

    if pending:
        _load_providers(pending)
        guard = (GuardState(ctx.guard, ctx.clock, tracer=tracer)
                 if ctx.guard else None)
        started = ctx.clock() if ctx.clock is not None else None
        try:
            computed = run_with_policy(
                ctx.executor, pending, ctx.policy, sleep=ctx.sleep,
                on_outcome=checkpoint, stats=stats, tracer=tracer,
                guard=guard)
        finally:
            if started is not None:
                stats.sim_seconds += ctx.clock() - started
        for task, outcome in zip(pending, computed):
            outcomes[task.index] = outcome
            if outcome.failed:
                stats.failures += 1
    contracts.check_sweep_stats(stats)
    if tracing:
        delta = stats.since(before)
        # The end record carries the batch's counter deltas but *not*
        # sim_seconds: that value is clock-derived, and keeping it off the
        # trace is what makes identical runs trace-identical modulo ``t``.
        tracer.emit(_obs.SWEEP_END, jobs=delta.jobs, hits=delta.hits,
                    misses=delta.misses, stores=delta.stores,
                    failures=delta.failures, retries=delta.retries)
    return outcomes  # type: ignore[return-value]


def _load_providers(tasks: Sequence[Task]) -> None:
    """Import each distinct provider of ``tasks`` before the first dispatch.

    No cell's window then absorbs its provider's import (the simulator,
    for the default provider), and forked pool workers inherit the loaded
    modules instead of importing them again.  An unimportable provider is
    left to :func:`~repro.engine.executors.execute_job`, which fails each
    of its cells with a typed :class:`~repro.errors.ConfigurationError`.
    """
    for provider in dict.fromkeys(task.job.provider for task in tasks):
        try:
            importlib.import_module(provider)
        except ImportError:
            continue


def sweep(jobs: Sequence[Job],
          context: Optional[EngineContext] = None) -> List[Any]:
    """Execute a batch of jobs, returning results in submission order.

    Output is bit-identical whatever the executor, and a fully warm cache
    runs no simulation.  The return value is the plain list of cell
    results; the first failed cell re-raises its original exception --
    *after* the batch drains, with every completed sibling already
    checkpointed, so a rerun simulates only the failed cell.  Callers that
    want per-cell failures as values call :func:`sweep_outcomes`.
    """
    return [outcome.unwrap()
            for outcome in sweep_outcomes(jobs, context=context)]


def sweep_configs(profiles: Sequence[Any], machine: Any, cfg: Any,
                  configs: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Sweep the (profile x config) grid of the default provider.

    Returns ``results[profile.abbrev][config]``.
    """
    profiles = list(profiles)
    configs = list(configs)
    jobs = [Job.make(p, machine, cfg, c) for p in profiles for c in configs]
    flat = iter(sweep(jobs))
    return {p.abbrev: {c: next(flat) for c in configs} for p in profiles}

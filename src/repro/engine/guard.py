"""Deadline and watchdog layer: bounding hung work in time.

PR 3 made sweeps survive worker *death*; this module makes them survive
worker *livelock*.  A :class:`GuardSpec` declares two budgets:

* ``job_timeout_s`` -- the longest one dispatch may run.  Enforced by the
  :class:`~repro.engine.executors.ProcessExecutor` watchdog: a dispatch
  that exceeds the budget has its pool terminated (reaping the hung
  worker), the cell is reclassified as a :class:`JobTimeoutError` --
  *transient* in the retry taxonomy, so ``FailurePolicy`` retries and
  :func:`~repro.engine.sweep.sweep_outcomes` apply to hangs exactly as
  to crashes -- and the unfinished frontier is re-dispatched to a fresh
  pool via the existing pool-rebuild machinery.  Serial execution cannot
  preempt an in-process cell, so the job budget only binds under
  ``jobs >= 2``.
* ``sweep_deadline_s`` -- the longest one sweep batch may run.  Checked
  between cells (serial), between watchdog polls (pool), and between
  retry rounds: once expired, every cell not yet finished fails with a
  :class:`SweepDeadlineError` (*permanent*: retrying against an expired
  deadline is never useful) and nothing new is dispatched.

Time only ever enters through the engine context's injected ``clock``
callable (REPRO006): tests drive the guard with deterministic logical
clocks, the CLI injects ``time.monotonic`` at the sanctioned boundary.
An armed :class:`GuardState` carries the tracer, emitting one
``job.deadline`` event per expired budget so every recovery action is
observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.engine.resilience import (
    PERMANENT,
    TRANSIENT,
    JobError,
    JobOutcome,
    Task,
    job_label,
    register_error_class,
)
from repro.errors import ConfigurationError, ReproError
from repro.obs import records as _obs


class JobTimeoutError(ReproError):
    """One dispatch exceeded its job deadline and its worker was killed.

    Classified *transient*: a hang is usually environmental (a wedged
    worker, a lost lock, injected chaos), so retry policies treat it
    like a crash and re-run the cell.
    """


class SweepDeadlineError(ReproError):
    """The whole sweep batch exceeded its deadline before this cell ran.

    Classified *permanent*: once the sweep budget is spent, re-running
    the cell inside the same sweep can only fail the same way.
    """


register_error_class(JobTimeoutError, TRANSIENT)
register_error_class(SweepDeadlineError, PERMANENT)


@dataclass(frozen=True)
class GuardSpec:
    """Declarative deadline configuration for an engine context."""

    job_timeout_s: Optional[float] = None
    sweep_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("job_timeout_s", "sweep_deadline_s"):
            value = getattr(self, name)
            # A NaN or infinite budget never expires.
            if value is not None and not (math.isfinite(value)
                                          and value > 0):
                raise ConfigurationError(
                    f"{name} must be a finite number > 0 seconds, "
                    f"got {value}")

    def __bool__(self) -> bool:
        return (self.job_timeout_s is not None
                or self.sweep_deadline_s is not None)


class GuardState:
    """One sweep batch's armed guard: spec + clock origin + tracer.

    Constructed by :func:`repro.engine.sweep.sweep_outcomes` when the
    context carries a non-empty :class:`GuardSpec`; the sweep deadline is
    measured from construction.  All timeout/deadline *outcomes* are
    synthesized here (parent-side, picklable), so executors only decide
    *when* a budget expired, never what the failure looks like.
    """

    def __init__(self, spec: GuardSpec, clock: Callable[[], float],
                 tracer: Optional[Any] = None) -> None:
        if clock is None:
            raise ConfigurationError(
                "deadlines need an injected clock; pass clock= to "
                "engine.configure")
        self.spec = spec
        self.clock = clock
        self.tracer = tracer
        self.started = clock()

    def now(self) -> float:
        return self.clock()

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(kind, **fields)

    # -- sweep deadline ------------------------------------------------------

    def sweep_expired(self) -> bool:
        if self.spec.sweep_deadline_s is None:
            return False
        return self.clock() - self.started > self.spec.sweep_deadline_s

    def sweep_deadline_outcome(self, task: Task) -> JobOutcome:
        """Fail one not-yet-finished cell against the expired sweep budget."""
        message = (f"sweep deadline of {self.spec.sweep_deadline_s}s expired "
                   f"before cell #{task.index} ({job_label(task)}) finished")
        self._emit(_obs.JOB_DEADLINE, scope="sweep", job=job_label(task),
                   index=task.index, attempt=task.attempt,
                   deadline_s=self.spec.sweep_deadline_s)
        return _deadline_outcome(task, SweepDeadlineError(message), PERMANENT)

    # -- per-job deadline ----------------------------------------------------

    def expired_jobs(self, started_at: Dict[int, float],
                     pending: Iterable[int]) -> List[int]:
        """Indices of pending dispatches past the job budget (one clock
        read for the whole roster, so a poll is a single time sample)."""
        if self.spec.job_timeout_s is None:
            return []
        now = self.clock()
        return [index for index in sorted(pending)
                if now - started_at[index] > self.spec.job_timeout_s]

    def timeout_outcome(self, task: Task, elapsed_s: float) -> JobOutcome:
        """Fail one hung dispatch; its worker is being killed by the
        caller (the executor terminates the whole pool)."""
        message = (f"cell #{task.index} ({job_label(task)}) exceeded its job "
                   f"deadline of {self.spec.job_timeout_s}s "
                   f"(ran {elapsed_s:.3f}s); worker killed")
        self._emit(_obs.JOB_DEADLINE, scope="job", job=job_label(task),
                   index=task.index, attempt=task.attempt,
                   deadline_s=self.spec.job_timeout_s,
                   elapsed_s=elapsed_s)
        return _deadline_outcome(task, JobTimeoutError(message), TRANSIENT)


def _deadline_outcome(task: Task, exc: ReproError,
                      error_class: str) -> JobOutcome:
    """A synthesized failed outcome for a budget expiry.

    There is no worker traceback to capture -- the worker was killed (or
    never started) -- so the error record carries an explanatory stand-in
    instead of a formatted stack.
    """
    error = JobError(
        type_name=type(exc).__name__,
        message=str(exc),
        traceback=(f"{type(exc).__name__}: {exc}\n"
                   f"(no worker traceback: the dispatch was cut short by "
                   f"the deadline guard)"),
        error_class=error_class,
        attempt=task.attempt,
        exception=exc,
    )
    return JobOutcome(job=task.job, index=task.index, ok=False,
                      attempts=task.attempt + 1, errors=(error,))

"""Failure-aware sweep execution: outcomes, retries, and error taxonomy.

The engine's executors are all-or-nothing by construction -- a cell is a
pure function that either returns a result or raises.  This module turns
that raw behaviour into *typed, policy-driven* failure handling:

* :class:`JobError` -- a picklable record of one failed attempt, carrying
  the remote traceback text (worker tracebacks don't survive pickling,
  their formatted text does) plus the original exception object whenever
  it is picklable, so :meth:`JobOutcome.unwrap` can re-raise the real
  type;
* :class:`JobOutcome` -- the typed per-cell result: value, attempt count,
  and the per-attempt error records;
* :class:`FailurePolicy` -- a retry count plus the seed of a
  deterministic backoff that never reads host time: delays are a pure
  function of ``(seed, cell index, attempt)`` and are *applied* through
  an injected ``sleep`` callable (absent by default, so tests and
  simulation paths stay instantaneous and REPRO006-clean);
* an extensible **error taxonomy**: :func:`classify_error` maps an
  exception to :data:`TRANSIENT` or :data:`PERMANENT`; only transient
  errors are retried.  :func:`register_error_class` extends the mapping
  for out-of-tree providers.

This file is the *sanctioned broad-capture point* of the engine: lint
rule REPRO007 forbids ``except Exception`` everywhere else under
``engine/`` so that a swallowed error can never silently turn into a
wrong figure -- every broad catch below immediately converts the
exception into a structured :class:`JobError`.
"""

from __future__ import annotations

import pickle
import random
import traceback as _traceback
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import ConfigurationError, ReproError, SweepFailure
from repro.obs import records as _obs

#: Error classes of the retry taxonomy.  A *transient* error is worth
#: retrying (flaky infrastructure, injected chaos); a *permanent* one is a
#: programming or configuration error that will fail identically forever.
TRANSIENT = "transient"
PERMANENT = "permanent"

ERROR_CLASSES = (TRANSIENT, PERMANENT)

#: Backoff window of the first retry and the cap on every window, in
#: seconds; each retry doubles the window until it reaches the cap.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0

#: The taxonomy registry: later registrations win, unknown types default
#: to :data:`PERMANENT` (never waste retries on a deterministic bug).
_ERROR_CLASSES: List[Tuple[Type[BaseException], str]] = [
    (ConnectionError, TRANSIENT),
    (TimeoutError, TRANSIENT),
    (InterruptedError, TRANSIENT),
    (ReproError, PERMANENT),
]


def register_error_class(exc_type: Type[BaseException], error_class: str) -> None:
    """Extend the taxonomy: classify ``exc_type`` (and subclasses).

    Registrations are consulted newest-first, so registering a subclass
    after its parent refines the parent's classification.
    """
    if not (isinstance(exc_type, type) and issubclass(exc_type, BaseException)):
        raise ConfigurationError(
            f"error taxonomy entries must be exception types, got {exc_type!r}")
    if error_class not in ERROR_CLASSES:
        raise ConfigurationError(
            f"unknown error class {error_class!r}; expected one of "
            f"{', '.join(ERROR_CLASSES)}")
    _ERROR_CLASSES.insert(0, (exc_type, error_class))


def classify_error(exc: BaseException) -> str:
    """Map an exception to its taxonomy class (default: permanent)."""
    for exc_type, error_class in _ERROR_CLASSES:
        if isinstance(exc, exc_type):
            return error_class
    return PERMANENT


@dataclass(frozen=True)
class JobError:
    """One failed attempt of one cell, in picklable form.

    ``exception`` holds the original exception object when it pickles
    cleanly (so :meth:`JobOutcome.unwrap` can re-raise the real type);
    otherwise it is ``None`` and only the formatted remote traceback
    survives.
    """

    type_name: str
    message: str
    traceback: str
    error_class: str
    attempt: int
    exception: Optional[BaseException] = None

    @classmethod
    def capture(cls, exc: BaseException, attempt: int) -> "JobError":
        """Snapshot a live exception inside the worker that raised it."""
        try:
            pickle.dumps(exc)
            carried: Optional[BaseException] = exc
        except Exception:  # noqa: REPRO007-sanctioned broad capture
            carried = None
        return cls(
            type_name=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
            error_class=classify_error(exc),
            attempt=attempt,
            exception=carried,
        )

    @property
    def transient(self) -> bool:
        return self.error_class == TRANSIENT


@dataclass(frozen=True)
class JobOutcome:
    """The typed result of one sweep cell.

    ``attempts`` counts executions (0 for a cache hit); ``errors`` holds
    one :class:`JobError` per failed attempt in order, so a cell that
    succeeded on its second try has ``ok=True, attempts=2`` and one error
    record.
    """

    job: Any
    index: int
    ok: bool
    value: Any = None
    attempts: int = 0
    errors: Tuple[JobError, ...] = ()
    from_cache: bool = False

    @property
    def failed(self) -> bool:
        return not self.ok

    @property
    def last_error(self) -> Optional[JobError]:
        return self.errors[-1] if self.errors else None

    def unwrap(self) -> Any:
        """The cell's value; a failed outcome re-raises its error.

        The original exception type is re-raised whenever the worker-side
        exception pickled cleanly, with the remote traceback attached as
        an exception note; otherwise a :class:`SweepFailure` embeds it.
        """
        if self.ok:
            return self.value
        error = self.last_error
        summary = (f"sweep cell #{self.index} ({self.job.describe()}) failed "
                   f"after {self.attempts} attempt(s)")
        if error is None:
            raise SweepFailure(summary)
        if error.exception is not None:
            exc = error.exception
            if hasattr(exc, "add_note"):
                exc.add_note(f"{summary}; remote traceback:\n{error.traceback}")
            raise exc
        raise SweepFailure(
            f"{summary}: {error.type_name}: {error.message}\n"
            f"remote traceback:\n{error.traceback}")

    def describe(self) -> str:
        state = "cached" if self.from_cache else ("ok" if self.ok else "FAILED")
        return f"#{self.index} {self.job.describe()}: {state}"


@dataclass(frozen=True)
class Task:
    """One dispatch unit: a job plus its retry/redispatch bookkeeping.

    ``attempt`` counts *completed failed attempts* (retry ladder);
    ``dispatch`` counts *pool submissions*, which also advance when a
    crashed pool re-dispatches work that never ran.  Fault-injection
    plans key ``fail`` faults on ``attempt`` and ``kill`` faults on
    ``dispatch`` so each stays deterministic under the other.
    """

    job: Any
    index: int
    attempt: int = 0
    dispatch: int = 0
    faults: Optional[Any] = None

    def retry(self) -> "Task":
        return replace(self, attempt=self.attempt + 1,
                       dispatch=self.dispatch + 1)

    def redispatch(self) -> "Task":
        return replace(self, dispatch=self.dispatch + 1)


@dataclass(frozen=True)
class FailurePolicy:
    """How often a sweep retries a failing cell.

    A transient failure is re-run up to ``retries`` extra times with
    deterministic seeded backoff; a permanent one, or a transient one out
    of retries, is the cell's final outcome.  Backoff is a pure function
    of ``(seed, index, attempt)`` -- no host clock is ever read.
    """

    retries: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}")


def backoff_delay(policy: FailurePolicy, index: int, attempt: int) -> float:
    """Deterministic jittered exponential backoff, host-clock-free.

    The delay is a pure function of the policy seed, the cell's index and
    the attempt number: reruns compute bit-identical schedules, and the
    engine only *applies* the delay through an injected sleep callable.
    """
    rng = random.Random(f"{policy.seed}:{index}:{attempt}")
    window = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** attempt))
    return window * (0.5 + 0.5 * rng.random())


def execute_task(task: Task) -> JobOutcome:
    """Run one task, capturing any failure as a structured outcome.

    This is the pool-worker entry point and the engine's sanctioned
    broad-capture site: exceptions (never ``KeyboardInterrupt`` or other
    ``BaseException``) become :class:`JobError` records with the remote
    traceback formatted *here*, inside the process that raised it.
    Fault-injection hooks run first so tests can fail or kill
    deterministically chosen cells.
    """
    from repro.engine.executors import execute_job

    try:
        if task.faults is not None:
            task.faults.on_execute(task.job, task.index, task.attempt,
                                   task.dispatch)
        value = execute_job(task.job)
    except Exception as exc:  # sanctioned capture point (REPRO007)
        return JobOutcome(
            job=task.job, index=task.index, ok=False,
            attempts=task.attempt + 1,
            errors=(JobError.capture(exc, attempt=task.attempt),))
    return JobOutcome(job=task.job, index=task.index, ok=True, value=value,
                      attempts=task.attempt + 1)


def job_label(task: Task) -> str:
    """A stable human identity for a task's cell on trace events."""
    describe = getattr(task.job, "describe", None)
    if callable(describe):
        return str(describe())
    return f"cell-{task.index}"


def run_with_policy(executor: Any, tasks: Sequence[Task],
                    policy: FailurePolicy,
                    sleep: Optional[Callable[[float], None]] = None,
                    on_outcome: Optional[Callable[[Task, JobOutcome], None]] = None,
                    stats: Optional[Any] = None,
                    tracer: Optional[Any] = None,
                    guard: Optional[Any] = None) -> List[JobOutcome]:
    """Drive tasks through an executor in rounds, retrying per policy.

    Each round dispatches the whole open frontier as one batch (so a
    process pool sees maximal parallelism), then failures classified
    retryable are re-queued for the next round with their backoff applied
    through ``sleep``.  ``on_outcome`` fires as soon as each attempt
    completes -- the sweep layer uses it to checkpoint finished results
    into the cache *before* the batch (or the run) is over.  Results come
    back in submission order regardless of rounds.

    ``tracer`` (optional, injected) observes the round structure:
    ``executor.dispatch`` per submitted attempt, ``executor.harvest`` as
    each attempt's outcome arrives, and ``retry.backoff`` when a failure
    is re-queued.  All events are emitted on the parent side -- workers
    never see the tracer, so executors stay picklable and custom
    ``run_tasks`` signatures stay untouched.

    ``guard`` (optional, an armed :class:`~repro.engine.guard.GuardState`)
    bounds the rounds in injected-clock time: it is forwarded to the
    executor only when present (custom executors with the plain two-arg
    ``run_tasks`` keep working), and once the sweep deadline expires no
    further retry round is scheduled -- would-be retries fail permanently
    with the deadline outcome instead of sleeping through backoff.
    """
    tracing = tracer is not None and tracer.enabled
    final: Dict[int, JobOutcome] = {}
    history: Dict[int, Tuple[JobError, ...]] = {}
    round_tasks = list(tasks)
    harvest = on_outcome
    if tracing:
        def harvest(task: Task, outcome: JobOutcome) -> None:
            tracer.emit(_obs.HARVEST, job=job_label(task),
                        index=task.index, attempt=task.attempt,
                        ok=outcome.ok)
            if on_outcome is not None:
                on_outcome(task, outcome)
    while round_tasks:
        if tracing:
            for task in round_tasks:
                tracer.emit(_obs.DISPATCH, job=job_label(task),
                            index=task.index, attempt=task.attempt,
                            dispatch=task.dispatch)
        if guard is not None:
            computed = executor.run_tasks(round_tasks, on_outcome=harvest,
                                          guard=guard)
        else:
            computed = executor.run_tasks(round_tasks, on_outcome=harvest)
        sweep_expired = guard is not None and guard.sweep_expired()
        next_round: List[Task] = []
        for task, outcome in zip(round_tasks, computed):
            if outcome.ok:
                prior = history.pop(task.index, ())
                final[task.index] = replace(
                    outcome, errors=prior + outcome.errors)
                continue
            errors = history.get(task.index, ()) + outcome.errors
            if (not sweep_expired and task.attempt < policy.retries
                    and outcome.last_error is not None
                    and outcome.last_error.transient):
                delay = backoff_delay(policy, task.index, task.attempt)
                history[task.index] = errors
                if stats is not None:
                    stats.retries += 1
                if tracing:
                    tracer.emit(_obs.RETRY, job=job_label(task),
                                index=task.index, attempt=task.attempt,
                                delay_s=delay,
                                error=errors[-1].type_name)
                if sleep is not None and delay > 0:
                    sleep(delay)
                next_round.append(task.retry())
            else:
                final[task.index] = replace(
                    outcome, errors=errors)
        round_tasks = next_round
    return [final[task.index] for task in tasks]

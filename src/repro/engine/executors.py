"""Job execution backends: in-process serial and multiprocessing pools.

Both executors guarantee *submission-order* results, which is what makes
parallel sweeps bit-identical to serial ones: every cell is a pure
function of its :class:`~repro.engine.job.Job`, so only ordering could
differ, and the index-keyed collection below pins that down.

The pool backend is failure-aware: a ``multiprocessing`` pool silently
*replaces* a crashed worker and leaves that worker's in-flight result
pending forever, so :class:`ProcessExecutor` tracks every worker process
it has ever seen and watches exit codes.  Workers are never recycled, so
any exit (a crash or an injected ``kill`` fault) abandons the pool:
finished results are kept, the unfinished frontier is re-dispatched to a
fresh pool, and after :data:`MAX_POOL_FAILURES` crashes the executor
degrades to serial in-process execution with a warning rather than
crash-looping.  Because cells are pure, a cell that ran twice (in-flight
during a crash, then re-run) returns an identical value, and outcomes
still come back in submission order.

Both executors additionally honour an armed
:class:`~repro.engine.guard.GuardState` (``run_tasks(..., guard=)``):
the pool watchdog kills pools whose dispatches exceed the per-job
deadline (the hung cell becomes a transient
:class:`~repro.engine.guard.JobTimeoutError` outcome, the rest of the
frontier is re-dispatched -- a *deadline* kill never counts toward
:data:`MAX_POOL_FAILURES`, since degrading a hang-prone sweep to serial
would remove the only mechanism able to interrupt it), and both
executors fail not-yet-started cells fast once the sweep deadline
expires.  Deadline checks read time exclusively through the guard's
injected clock.
"""

from __future__ import annotations

import importlib
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.engine.resilience import JobOutcome, Task, execute_task
from repro.errors import ConfigurationError
from repro.obs import records as _obs

if TYPE_CHECKING:
    from repro.engine.job import Job

#: Pool crashes tolerated before degrading to serial execution.
MAX_POOL_FAILURES = 2

#: Seconds between worker-liveness checks while draining a pool.
_POLL_INTERVAL_S = 0.05

#: Classes whose instances cross the worker pickle boundary, as
#: ``"module:qualname"``.  ``Task`` (and the ``Job`` it carries, plus any
#: attached ``FaultPlan``) is pickled *to* workers by ``apply_async``;
#: ``JobOutcome``/``JobError`` are pickled *back*.  Lint rule REPRO010
#: audits exactly this list for unpicklable members, so a class that
#: starts crossing the boundary must be added here to stay checked.
PICKLE_BOUNDARY = (
    "repro.engine.job:Job",
    "repro.engine.resilience:Task",
    "repro.engine.resilience:JobOutcome",
    "repro.engine.resilience:JobError",
    "repro.faults:FaultSpec",
    "repro.faults:FaultPlan",
)

OutcomeCallback = Optional[Callable[[Task, JobOutcome], None]]


def execute_job(job: "Job") -> Any:
    """Run one job in the current process (also the pool-worker entry).

    The job's provider module is imported first so the config-registry
    entry it names exists even in a freshly spawned interpreter.  An
    unimportable provider is a configuration error naming the job, not a
    bare ``ImportError`` pickled back from a worker.
    """
    try:
        importlib.import_module(job.provider)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import provider module {job.provider!r} for job "
            f"{job.describe()!r}: {exc}") from exc
    from repro.experiments.common import run_config

    return run_config(job.profile, job.machine, job.cfg, job.config,
                      **job.opts_dict())


class SerialExecutor:
    """Run jobs one after another in the calling process."""

    jobs = 1

    def run_tasks(self, tasks: Sequence[Task],
                  on_outcome: OutcomeCallback = None,
                  guard: Optional[Any] = None) -> List[JobOutcome]:
        outcomes: List[JobOutcome] = []
        for task in tasks:
            # The sweep deadline is checked *between* cells: serial
            # execution cannot preempt a running cell (only the pool
            # watchdog can kill a hung dispatch), but it never starts a
            # new cell against an expired budget.
            if guard is not None and guard.sweep_expired():
                outcome = guard.sweep_deadline_outcome(task)
            else:
                outcome = execute_task(task)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(task, outcome)
        return outcomes


class ProcessExecutor:
    """Fan jobs out over a ``multiprocessing`` pool of ``jobs`` workers."""

    def __init__(self, jobs: int, tracer: Optional[Any] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(
                f"executor needs at least one worker, got jobs={jobs}")
        self.jobs = jobs
        #: Optionally injected tracer for pool-lifecycle events; lives on
        #: the parent side only (workers never see it), so the executor
        #: stays picklable-free of sinks.
        self.tracer = tracer

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(kind, **fields)

    def run_tasks(self, tasks: Sequence[Task],
                  on_outcome: OutcomeCallback = None,
                  guard: Optional[Any] = None) -> List[JobOutcome]:
        if self.jobs == 1 or len(tasks) <= 1:
            return SerialExecutor().run_tasks(tasks, on_outcome=on_outcome,
                                              guard=guard)
        outcomes: Dict[int, JobOutcome] = {}
        pending: Dict[int, Task] = {task.index: task for task in tasks}
        crashes = 0
        while pending:
            abandon = self._drain_pool(pending, outcomes, on_outcome, guard)
            if abandon is None:
                break
            pending = {index: task.redispatch()
                       for index, task in pending.items()}
            if abandon == "deadline":
                # A deadline kill is the guard working as designed, not a
                # pool failure: it never counts toward degrade-to-serial
                # (serial execution could not interrupt the next hang).
                redispatch = (f"; re-dispatching the {len(pending)} "
                              f"unfinished cell(s) to a fresh pool"
                              if pending else "")
                warnings.warn(
                    f"sweep guard killed a pool to reap a hung "
                    f"worker{redispatch}", RuntimeWarning, stacklevel=2)
                continue
            crashes += 1
            self._emit(_obs.POOL_DEATH, crashes=crashes,
                       pending=len(pending))
            if crashes >= MAX_POOL_FAILURES:
                self._emit(_obs.POOL_DEGRADE, crashes=crashes,
                           pending=len(pending))
                warnings.warn(
                    f"sweep pool lost a worker {crashes} time(s); degrading "
                    f"to serial execution for the {len(pending)} unfinished "
                    f"cell(s)", RuntimeWarning, stacklevel=2)
                rest = [pending[index] for index in sorted(pending)]
                for task, outcome in zip(
                        rest, SerialExecutor().run_tasks(
                            rest, on_outcome=on_outcome, guard=guard)):
                    outcomes[task.index] = outcome
                pending.clear()
                break
            warnings.warn(
                f"sweep pool lost a worker; re-dispatching the "
                f"{len(pending)} unfinished cell(s) to a fresh pool",
                RuntimeWarning, stacklevel=2)
        return [outcomes[task.index] for task in tasks]

    def _drain_pool(self, pending: Dict[int, Task],
                    outcomes: Dict[int, JobOutcome],
                    on_outcome: OutcomeCallback,
                    guard: Optional[Any] = None) -> Optional[str]:
        """Run one pool over the open frontier.

        Returns why the pool was abandoned with work still pending --
        ``"crash"`` (a worker died) or ``"deadline"`` (the guard killed a
        hung dispatch) -- or ``None`` when nothing is left to dispatch.
        Finished results are collected incrementally either way.
        """
        import multiprocessing

        tasks = [pending[index] for index in sorted(pending)]
        workers = min(self.jobs, len(tasks))
        pool = multiprocessing.Pool(processes=workers)
        try:
            asyncs = [(task, pool.apply_async(execute_task, (task,)))
                      for task in tasks]
            # Job budgets are measured from pool submission (queueing
            # included): the watchdog cannot see *which* worker runs a
            # given dispatch, only that the dispatch has not come back.
            dispatched_at = ({index: guard.now() for index in pending}
                             if guard is not None else {})
            seen_workers: List[Any] = []

            def collect_ready() -> None:
                for task, result in asyncs:
                    if task.index in pending and result.ready():
                        outcome = result.get(_POLL_INTERVAL_S)
                        outcomes[task.index] = outcome
                        del pending[task.index]
                        if on_outcome is not None:
                            on_outcome(task, outcome)

            while True:
                collect_ready()
                if not pending:
                    return None
                if guard is not None:
                    if guard.sweep_expired():
                        # Budget for the whole batch is gone: fail every
                        # unfinished cell fast, kill the pool, dispatch
                        # nothing further.
                        self._emit(_obs.WORKER_KILL, reason="sweep-deadline",
                                   pending=len(pending))
                        for index in sorted(pending):
                            task = pending.pop(index)
                            outcome = guard.sweep_deadline_outcome(task)
                            outcomes[index] = outcome
                            if on_outcome is not None:
                                on_outcome(task, outcome)
                        return None
                    expired = guard.expired_jobs(dispatched_at, pending)
                    if expired:
                        # FIFO dispatch means the cells actually *on*
                        # workers are the first ``workers`` entries of
                        # the pending frontier; later expired cells are
                        # merely starved in the queue behind a hung
                        # worker, and are re-dispatched with fresh
                        # budgets instead of being blamed.
                        running = set(sorted(pending)[:workers])
                        victims = ([index for index in expired
                                    if index in running] or expired)
                        now = guard.now()
                        for index in victims:
                            task = pending.pop(index)
                            outcome = guard.timeout_outcome(
                                task, elapsed_s=now - dispatched_at[index])
                            outcomes[index] = outcome
                            if on_outcome is not None:
                                on_outcome(task, outcome)
                        # Killing the hung worker means terminating the
                        # whole pool (workers are anonymous); innocent
                        # in-flight dispatches are re-dispatched fresh.
                        self._emit(_obs.WORKER_KILL, reason="job-deadline",
                                   killed=len(victims), pending=len(pending))
                        return "deadline"
                if self._worker_crashed(pool, seen_workers):
                    # One last harvest: results that landed between the
                    # crash and its detection are still valid.
                    collect_ready()
                    return "crash" if pending else None
                self._wait_for_progress(asyncs, pending)
        finally:
            pool.terminate()
            pool.join()

    @staticmethod
    def _worker_crashed(pool: Any, seen_workers: List[Any]) -> bool:
        """Whether any worker this pool ever ran has exited.

        The pool's maintenance thread replaces dead workers in place, so
        crash detection must remember every worker process observed, not
        just the current roster.  Workers are never recycled, so a live
        pool's workers never exit: any exit code, 0 included (a worker
        that called ``sys.exit(0)``), means a cell's result is lost.
        """
        current = getattr(pool, "_pool", None)
        if current is None:  # unknown pool implementation: no detection
            return False
        for worker in list(current):
            if worker not in seen_workers:
                seen_workers.append(worker)
        return any(worker.exitcode is not None for worker in seen_workers)

    @staticmethod
    def _wait_for_progress(asyncs: Sequence, pending: Dict[int, Task]) -> None:
        """Block briefly on the first unfinished result."""
        for task, result in asyncs:
            if task.index in pending:
                result.wait(_POLL_INTERVAL_S)
                return


def get_executor(jobs: int = 1, tracer: Optional[Any] = None) -> Any:
    """Executor for ``jobs`` workers (serial when ``jobs == 1``)."""
    if jobs < 1:
        raise ConfigurationError(
            f"executor needs at least one worker, got jobs={jobs}")
    if jobs == 1:
        return SerialExecutor()
    return ProcessExecutor(jobs, tracer=tracer)

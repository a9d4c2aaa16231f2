"""Failure-aware sweeps: outcomes, retries, crash recovery, checkpoints.

Cells run through the millisecond-cheap ``resilience_echo`` provider
(:mod:`tests.engine.fake_provider`) so these tests exercise the failure
machinery, not the simulator.
"""

from __future__ import annotations

import time
import warnings

import pytest

import tests.engine.fake_provider  # noqa: F401  (registers resilience_echo)
from repro.engine import (
    MAX_POOL_FAILURES,
    EngineContext,
    FailurePolicy,
    Job,
    JobError,
    JobOutcome,
    PERMANENT,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    SweepStats,
    TRANSIENT,
    Task,
    backoff_delay,
    classify_error,
    configure,
    execute_job,
    execute_task,
    get_executor,
    register_error_class,
    sweep,
    sweep_outcomes,
)
from repro.engine.resilience import BACKOFF_BASE_S, BACKOFF_CAP_S
from repro.errors import (
    ConfigurationError,
    ContractViolationError,
    SweepFailure,
)
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedPermanentError,
    InjectedTransientError,
)
from repro.lint.contracts import check_sweep_stats
from repro.obs.records import POOL_DEATH, WORKER_KILL
from repro.obs.tracer import Tracer

PROVIDER = "tests.engine.fake_provider"


def echo_jobs(n, cfg="cfg"):
    return [Job.make(f"profile-{i}", None, cfg, "resilience_echo",
                     provider=PROVIDER, cell=i) for i in range(n)]


class TestSweepOutcomes:
    def test_one_fault_in_twenty_cells(self, tmp_path):
        """The acceptance sweep: 19 successes plus one typed failure."""
        with configure(cache_dir=tmp_path / "c",
                       faults="fail:#7:always") as ctx:
            outcomes = sweep_outcomes(echo_jobs(20))
        assert len(outcomes) == 20
        assert all(isinstance(o, JobOutcome) for o in outcomes)
        oks = [o for o in outcomes if o.ok]
        failures = [o for o in outcomes if o.failed]
        assert len(oks) == 19 and len(failures) == 1
        assert failures[0].index == 7
        error = failures[0].last_error
        assert error.type_name == "InjectedTransientError"
        assert "Traceback (most recent call last)" in error.traceback
        assert "InjectedTransientError" in error.traceback
        assert ctx.stats.failures == 1
        assert ctx.stats.stores == 19

    def test_rerun_simulates_only_the_failed_cell(self, tmp_path):
        with configure(cache_dir=tmp_path / "c",
                       faults="fail:#7:always"):
            sweep_outcomes(echo_jobs(20))
        # Same sweep, fault gone: 19 hits, one fresh simulation.
        with configure(cache_dir=tmp_path / "c") as ctx:
            outcomes = sweep_outcomes(echo_jobs(20))
        assert all(o.ok for o in outcomes)
        assert ctx.stats.hits == 19
        assert ctx.stats.misses == 1
        assert sum(o.from_cache for o in outcomes) == 19

    def test_failed_outcome_unwrap_reraises(self):
        with configure(faults="fail:#0:always"):
            outcomes = sweep_outcomes(echo_jobs(2))
        with pytest.raises(InjectedTransientError):
            outcomes[0].unwrap()
        assert outcomes[1].unwrap()["opts"] == {"cell": 1}


class TestRaiseMode:
    def test_reraises_original_type_with_remote_traceback(self):
        with configure(faults="fail:#1:always:permanent"):
            with pytest.raises(InjectedPermanentError) as exc_info:
                sweep(echo_jobs(3))
        notes = getattr(exc_info.value, "__notes__", [])
        assert any("remote traceback" in note for note in notes)
        assert any("sweep cell #1" in note for note in notes)

    def test_siblings_are_checkpointed_before_the_raise(self, tmp_path):
        with configure(cache_dir=tmp_path / "c", faults="fail:#2:always"):
            with pytest.raises(InjectedTransientError):
                sweep(echo_jobs(4))
        with configure(cache_dir=tmp_path / "c") as ctx:
            assert len(sweep(echo_jobs(4))) == 4
        assert ctx.stats.hits == 3
        assert ctx.stats.misses == 1

    def test_unpicklable_exception_degrades_to_sweep_failure(self):
        class LocalError(Exception):
            """Class is test-local, so instances never unpickle."""

        error = JobError.capture(LocalError("boom"), attempt=0)
        assert error.exception is None
        outcome = JobOutcome(job=echo_jobs(1)[0], index=0, ok=False,
                             attempts=1, errors=(error,))
        with pytest.raises(SweepFailure, match="boom"):
            outcome.unwrap()


class TestRetry:
    def test_transient_failure_is_retried_to_success(self):
        slept = []
        with configure(policy=FailurePolicy(retries=2),
                       faults="fail:#3:x1", sleep=slept.append) as ctx:
            results = sweep(echo_jobs(5))
        assert len(results) == 5
        assert results[3]["opts"] == {"cell": 3}
        assert ctx.stats.retries == 1
        assert slept == [backoff_delay(FailurePolicy(retries=2), 3, 0)]

    def test_default_policy_never_retries(self):
        slept = []
        with configure(faults="fail:#0:x1", sleep=slept.append) as ctx:
            outcomes = sweep_outcomes(echo_jobs(1))
        assert outcomes[0].failed and outcomes[0].attempts == 1
        assert ctx.stats.retries == 0 and slept == []

    def test_retry_history_lands_on_the_final_outcome(self):
        policy = FailurePolicy(retries=2)
        slept = []
        with configure(policy=policy, faults="fail:#0:x2",
                       sleep=slept.append):
            outcomes = sweep_outcomes(echo_jobs(1))
        assert outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert len(outcomes[0].errors) == 2
        assert [e.attempt for e in outcomes[0].errors] == [0, 1]
        # Each recorded failure was followed by its backoff.
        assert slept == [backoff_delay(policy, 0, 0),
                         backoff_delay(policy, 0, 1)]
        assert all(delay > 0 for delay in slept)

    def test_permanent_failure_is_never_retried(self):
        slept = []
        with configure(policy=FailurePolicy(retries=3),
                       faults="fail:#0:always:permanent",
                       sleep=slept.append) as ctx:
            outcomes = sweep_outcomes(echo_jobs(1))
        assert outcomes[0].failed
        assert outcomes[0].attempts == 1
        assert ctx.stats.retries == 0
        assert slept == []

    def test_retries_exhausted_keeps_every_error_record(self):
        slept = []
        with configure(policy=FailurePolicy(retries=2),
                       faults="fail:#0:always", sleep=slept.append):
            outcomes = sweep_outcomes(echo_jobs(1))
        assert outcomes[0].failed
        assert outcomes[0].attempts == 3
        assert len(outcomes[0].errors) == 3
        # The final attempt scheduled no backoff.
        assert len(slept) == 2

    def test_sweep_raises_once_retries_are_exhausted(self):
        with configure(policy=FailurePolicy(retries=2),
                       faults="fail:#1:always") as ctx:
            with pytest.raises(InjectedTransientError):
                sweep(echo_jobs(2))
        assert ctx.stats.retries == 2

    def test_backoff_is_deterministic_and_capped(self):
        policy = FailurePolicy(retries=8, seed=42)
        first = [backoff_delay(policy, index=3, attempt=a) for a in range(8)]
        again = [backoff_delay(policy, index=3, attempt=a) for a in range(8)]
        assert first == again
        # The window doubles from the base up to the cap; the delay is
        # jittered over its upper half.
        for attempt, delay in enumerate(first):
            window = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** attempt)
            assert window / 2 <= delay <= window
        assert backoff_delay(policy, 3, 0) != backoff_delay(policy, 4, 0)
        other_seed = FailurePolicy(retries=8, seed=43)
        assert backoff_delay(other_seed, 3, 0) != first[0]


class TestFailurePolicyValidation:
    def test_negative_retries(self):
        with pytest.raises(ConfigurationError, match="retries"):
            FailurePolicy(retries=-1)


class TestErrorTaxonomy:
    def test_default_classifications(self):
        assert classify_error(ConnectionError("x")) == TRANSIENT
        assert classify_error(TimeoutError("x")) == TRANSIENT
        assert classify_error(ConfigurationError("x")) == PERMANENT
        assert classify_error(ValueError("x")) == PERMANENT

    def test_injected_faults_are_classified(self):
        assert classify_error(InjectedTransientError("x")) == TRANSIENT
        assert classify_error(InjectedPermanentError("x")) == PERMANENT

    def test_registry_is_extensible_newest_first(self):
        class FlakyBackendError(ValueError):
            pass

        assert classify_error(FlakyBackendError("x")) == PERMANENT
        register_error_class(FlakyBackendError, TRANSIENT)
        assert classify_error(FlakyBackendError("x")) == TRANSIENT
        assert classify_error(ValueError("x")) == PERMANENT

    def test_register_rejects_non_exceptions(self):
        with pytest.raises(ConfigurationError, match="exception types"):
            register_error_class(int, TRANSIENT)

    def test_register_rejects_unknown_class(self):
        with pytest.raises(ConfigurationError, match="error class"):
            register_error_class(RuntimeError, "flaky")


class TestPoolResilience:
    def test_kill_fault_matches_serial_run_bit_for_bit(self):
        jobs = echo_jobs(8)
        serial = sweep(jobs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with configure(jobs=4, faults="kill:#2") as ctx:
                pooled = sweep(jobs)
        assert pooled == serial
        assert ctx.tracer.counts[POOL_DEATH] >= 1

    def test_persistent_kills_degrade_to_serial(self):
        jobs = echo_jobs(6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with configure(jobs=4, faults="kill:*:always") as ctx:
                pooled = sweep(jobs)
        assert pooled == sweep(jobs)
        assert ctx.tracer.counts[POOL_DEATH] == MAX_POOL_FAILURES
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert any("degrading to serial" in m for m in messages)

    def test_no_worker_is_recycled(self):
        """65 cells on two workers run on exactly two worker processes:
        a pool that retired a worker after 32 cells would start a third,
        which regenerates every trace its predecessor had memoized."""
        jobs = [Job.make(f"profile-{i}", None, "cfg", "worker_pid",
                         provider=PROVIDER, cell=i) for i in range(65)]
        with configure(jobs=2) as ctx:
            results = sweep(jobs)
        assert len({result["pid"] for result in results}) == 2
        assert POOL_DEATH not in ctx.tracer.counts
        assert WORKER_KILL not in ctx.tracer.counts

    def test_a_worker_exiting_zero_is_a_crash(self, tmp_path):
        """Workers are never retired, so a worker that exits with status
        0 (a cell calling ``sys.exit(0)``) has lost its cell like a
        killed one: the pool is rebuilt and the cell re-run.  The job
        timeout only bounds the test if the exit goes unnoticed."""
        marker = tmp_path / "exited"
        jobs = [Job.make(f"profile-{i}", None, "cfg", "exit_once",
                         provider=PROVIDER, cell=i,
                         marker=str(marker) if i == 1 else "")
                for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with configure(jobs=2, clock=time.monotonic,
                           job_timeout_s=30.0) as ctx:
                results = sweep(jobs)
        assert marker.exists()
        assert [r["opts"]["cell"] for r in results] == [0, 1, 2, 3]
        assert ctx.tracer.counts[POOL_DEATH] == 1
        assert WORKER_KILL not in ctx.tracer.counts

    def test_executor_validation(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            ProcessExecutor(jobs=0)
        with pytest.raises(ConfigurationError, match="jobs"):
            get_executor(0)
        assert isinstance(get_executor(1), SerialExecutor)
        assert get_executor(2).jobs == 2


class AbortingExecutor:
    """Serial executor that raises KeyboardInterrupt after N completions."""

    jobs = 1

    def __init__(self, abort_after):
        self.abort_after = abort_after

    def run_tasks(self, tasks, on_outcome=None):
        outcomes = []
        for completed, task in enumerate(tasks):
            if completed >= self.abort_after:
                raise KeyboardInterrupt
            outcome = execute_task(task)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(task, outcome)
        return outcomes


class ExplodingExecutor:
    """Serial executor whose batch dies with an infrastructure error."""

    jobs = 1

    def run_tasks(self, tasks, on_outcome=None):
        raise RuntimeError("executor infrastructure failure")


class TestAbortConsistency:
    def test_keyboard_interrupt_leaves_no_corrupt_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        ctx = EngineContext(executor=AbortingExecutor(abort_after=3),
                            cache=cache)
        jobs = echo_jobs(6)
        with pytest.raises(KeyboardInterrupt):
            sweep_outcomes(jobs, context=ctx)
        # Completed cells are durably checkpointed, nothing half-written.
        assert len(cache) == 3
        assert list((tmp_path / "c").rglob("*.tmp")) == []
        check_sweep_stats(ctx.stats)
        assert ctx.stats.misses == 3
        assert ctx.stats.stores == 3
        # A rerun serves the checkpointed cells from cache.
        with configure(cache_dir=tmp_path / "c") as fresh:
            assert len(sweep(jobs)) == 6
        assert fresh.stats.hits == 3
        assert fresh.stats.misses == 3

    def test_stats_stay_consistent_when_the_executor_raises(self):
        ctx = EngineContext(executor=ExplodingExecutor())
        with pytest.raises(RuntimeError, match="infrastructure"):
            sweep_outcomes(echo_jobs(4), context=ctx)
        check_sweep_stats(ctx.stats)
        assert ctx.stats.jobs == 4
        assert ctx.stats.misses == 0
        assert ctx.stats.failures == 0

    def test_sweep_stats_contract_catches_impossible_counts(self):
        bad = SweepStats(jobs=1, hits=1, misses=1)
        with pytest.raises(ContractViolationError, match="exceed"):
            check_sweep_stats(bad)
        with pytest.raises(ContractViolationError, match="negative"):
            check_sweep_stats(SweepStats(jobs=-1))
        with pytest.raises(ContractViolationError, match="stored"):
            check_sweep_stats(SweepStats(jobs=2, misses=1, stores=2))
        with pytest.raises(ContractViolationError, match="failures"):
            check_sweep_stats(SweepStats(jobs=2, misses=1, failures=2))


class TestCorruptionFault:
    def test_corrupt_fault_exercises_cache_eviction(self, tmp_path):
        jobs = echo_jobs(3)
        with configure(cache_dir=tmp_path / "c"):
            first = sweep(jobs)
        tracer = Tracer()
        cache = ResultCache(tmp_path / "c", tracer=tracer)
        ctx_faulty = EngineContext(executor=SerialExecutor(), cache=cache,
                                   faults=FaultPlan.coerce("corrupt:#1"),
                                   tracer=tracer)
        outcomes = sweep_outcomes(jobs, context=ctx_faulty)
        assert [o.value for o in outcomes] == first
        # The corrupted entry was evicted, re-simulated and re-stored.
        assert tracer.counts["cache.corrupt"] == 1
        assert tracer.counts["cache.quarantine"] == 1
        assert len(list((tmp_path / "c" / "quarantine").iterdir())) == 1
        assert ctx_faulty.stats.hits == 2
        assert ctx_faulty.stats.misses == 1
        assert ctx_faulty.stats.stores == 1

    def test_cache_corrupt_helper_reports_absence(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.corrupt("0" * 64) is False
        cache.put("ab" * 32, {"x": 1})
        assert cache.corrupt("ab" * 32) is True
        hit, _ = cache.get("ab" * 32)
        assert hit is False


class TestProviderImportErrors:
    def test_unimportable_provider_names_job_and_module(self):
        job = Job.make("p", None, "cfg", "resilience_echo",
                       provider="tests.engine.no_such_provider")
        with pytest.raises(ConfigurationError) as exc_info:
            execute_job(job)
        message = str(exc_info.value)
        assert "tests.engine.no_such_provider" in message
        assert "p/resilience_echo" in message

    def test_import_failure_is_a_permanent_typed_outcome(self):
        job = Job.make("p", None, "cfg", "resilience_echo",
                       provider="tests.engine.no_such_provider")
        outcome = execute_task(Task(job=job, index=0))
        assert outcome.failed
        assert outcome.last_error.type_name == "ConfigurationError"
        assert not outcome.last_error.transient

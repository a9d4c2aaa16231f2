"""Deadline guard: spec validation, clocked expiry, hung-worker reaping."""

from __future__ import annotations

import math
import time
import warnings

import pytest

from repro.engine import (
    FailurePolicy,
    GuardSpec,
    GuardState,
    Job,
    JobTimeoutError,
    SweepDeadlineError,
    configure,
    sweep_outcomes,
)
from repro.engine.resilience import PERMANENT, TRANSIENT, Task, classify_error
from repro.errors import ConfigurationError
from repro.experiments.common import RunConfig
from repro.obs.clock import FrozenClock, TickClock
from repro.obs.records import JOB_DEADLINE, POOL_DEGRADE, WORKER_KILL
from repro.obs.tracer import Tracer
from repro.sim.params import skylake
from repro.workloads.suite import get_profile
from tests.obs.capture import CaptureSink

CFG = RunConfig(invocations=2, warmup=1, instruction_scale=0.1)


def echo_jobs(count, **opts):
    profile = get_profile("Auth-G")
    machine = skylake()
    return [Job.make(profile, machine, CFG, "resilience_echo",
                     provider="tests.engine.fake_provider", seq=i, **opts)
            for i in range(count)]


class TestGuardSpec:
    def test_empty_spec_is_falsy(self):
        assert not GuardSpec()
        assert GuardSpec(job_timeout_s=1.0)
        assert GuardSpec(sweep_deadline_s=2.0)

    @pytest.mark.parametrize("kwargs", [
        {"job_timeout_s": 0}, {"job_timeout_s": -1.0},
        {"sweep_deadline_s": 0}, {"sweep_deadline_s": -0.5},
        # NaN passes ``<= 0``; no elapsed time exceeds NaN or inf.
        {"job_timeout_s": math.nan}, {"job_timeout_s": math.inf},
        {"job_timeout_s": -math.inf}, {"sweep_deadline_s": math.nan},
        {"sweep_deadline_s": math.inf}, {"sweep_deadline_s": -math.inf},
    ])
    def test_rejects_non_positive_budgets(self, kwargs):
        with pytest.raises(ConfigurationError, match="> 0"):
            GuardSpec(**kwargs)

    def test_configure_requires_clock_with_deadlines(self):
        with pytest.raises(ConfigurationError, match="clock"):
            with configure(job_timeout_s=1.0):
                pass

    def test_configure_without_deadlines_carries_no_guard(self):
        with configure() as ctx:
            assert ctx.guard is None

    def test_configure_with_deadlines_carries_spec(self):
        with configure(clock=TickClock(), sweep_deadline_s=9.0) as ctx:
            assert ctx.guard == GuardSpec(sweep_deadline_s=9.0)


class TestGuardState:
    def test_requires_a_clock(self):
        with pytest.raises(ConfigurationError, match="clock"):
            GuardState(GuardSpec(job_timeout_s=1.0), clock=None)

    def test_sweep_expiry_is_clock_driven(self):
        clock = TickClock(step=10.0)
        guard = GuardState(GuardSpec(sweep_deadline_s=25.0), clock)
        assert guard.started == 0.0
        assert not guard.sweep_expired()   # now=10
        assert not guard.sweep_expired()   # now=20
        assert guard.sweep_expired()       # now=30 > 25

    def test_no_sweep_budget_never_expires(self):
        guard = GuardState(GuardSpec(job_timeout_s=1.0), TickClock(step=1e9))
        assert not guard.sweep_expired()

    def test_job_expiry_roster_uses_one_clock_read(self):
        clock = TickClock(step=5.0)
        guard = GuardState(GuardSpec(job_timeout_s=12.0), clock)
        started_at = {0: 0.0, 1: 0.0, 2: 10.0}
        # Construction read t=0; this roster check reads exactly once
        # (t=5): nothing has exceeded 12s yet.
        assert guard.expired_jobs(started_at, [0, 1, 2]) == []
        clock()  # 10
        clock()  # 15
        assert guard.expired_jobs(started_at, [0, 1, 2]) == [0, 1]  # t=20

    def test_no_job_budget_flags_nothing(self):
        guard = GuardState(GuardSpec(sweep_deadline_s=5.0), FrozenClock())
        assert guard.expired_jobs({0: 0.0}, [0]) == []

    def test_outcomes_carry_taxonomy_and_counters(self):
        tracer = Tracer()
        guard = GuardState(
            GuardSpec(job_timeout_s=1.0, sweep_deadline_s=2.0), FrozenClock(),
            tracer=tracer)
        task = Task(job=echo_jobs(1)[0], index=0, attempt=1)
        hung = guard.timeout_outcome(task, elapsed_s=3.5)
        assert not hung.ok and hung.attempts == 2
        assert isinstance(hung.last_error.exception, JobTimeoutError)
        assert hung.last_error.error_class == TRANSIENT
        expired = guard.sweep_deadline_outcome(task)
        assert isinstance(expired.last_error.exception, SweepDeadlineError)
        assert expired.last_error.error_class == PERMANENT
        assert tracer.counts == {JOB_DEADLINE: 2}

    def test_deadline_events_are_emitted(self):
        sink = CaptureSink()
        guard = GuardState(GuardSpec(job_timeout_s=1.0,
                                     sweep_deadline_s=1.0),
                           FrozenClock(), tracer=Tracer(sinks=[sink]))
        task = Task(job=echo_jobs(1)[0], index=0)
        guard.timeout_outcome(task, elapsed_s=2.0)
        guard.sweep_deadline_outcome(task)
        kinds = [e.kind for e in sink.events]
        assert kinds == ["job.deadline", "job.deadline"]
        scopes = [e.fields_dict()["scope"] for e in sink.events]
        assert scopes == ["job", "sweep"]

    def test_error_taxonomy_registration(self):
        assert classify_error(JobTimeoutError("x")) == TRANSIENT
        assert classify_error(SweepDeadlineError("x")) == PERMANENT


class TestSerialSweepDeadline:
    def test_expired_sweep_fails_remaining_cells_permanently(self):
        # Huge step: the budget is gone before the second cell starts
        # (the first cell always runs -- the check precedes dispatch).
        with configure(clock=TickClock(step=100.0), sweep_deadline_s=150.0):
            outcomes = sweep_outcomes(echo_jobs(4))
        failed = [o for o in outcomes if not o.ok]
        assert failed, "deadline never fired"
        for outcome in failed:
            assert isinstance(outcome.last_error.exception,
                              SweepDeadlineError)

    def test_generous_deadline_never_fires(self):
        with configure(clock=TickClock(step=0.001), sweep_deadline_s=1e6):
            outcomes = sweep_outcomes(echo_jobs(4))
        assert all(o.ok for o in outcomes)

    def test_expired_sweep_skips_retry_rounds(self):
        # The injected failure is transient and retryable, but the sweep
        # budget is exhausted by the time the round drains -- no retry
        # round may be scheduled against a dead deadline.
        with configure(clock=TickClock(step=100.0), sweep_deadline_s=150.0,
                       policy=FailurePolicy(retries=3),
                       faults="fail:#0:always") as ctx:
            outcomes = sweep_outcomes(echo_jobs(2))
        assert not outcomes[0].ok
        assert ctx.stats.retries == 0

    def test_deadline_jobs_do_not_poison_the_cache(self, tmp_path):
        with configure(clock=TickClock(step=100.0), sweep_deadline_s=150.0,
                       cache_dir=tmp_path / "c"):
            first = sweep_outcomes(echo_jobs(4))
        survivors = sum(1 for o in first if o.ok)
        # A fresh, unguarded context must recompute only what never ran.
        with configure(cache_dir=tmp_path / "c") as ctx:
            second = sweep_outcomes(echo_jobs(4))
        assert all(o.ok for o in second)
        assert ctx.stats.hits == survivors


class TestPoolHungWorkerReaping:
    @pytest.mark.parametrize("policy,expect_ok", [
        (FailurePolicy(), False),
        (FailurePolicy(retries=1), True),
    ])
    def test_unbounded_hang_is_killed_and_classified(self, policy,
                                                     expect_ok, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with configure(jobs=2, clock=time.monotonic, job_timeout_s=1.0,
                           policy=policy, faults="hang:#1") as ctx:
                outcomes = sweep_outcomes(echo_jobs(4))
        innocent = [o for i, o in enumerate(outcomes) if i != 1]
        assert all(o.ok for o in innocent)
        assert outcomes[1].ok == expect_ok
        if not expect_ok:
            assert isinstance(outcomes[1].last_error.exception,
                              JobTimeoutError)
        else:
            # First dispatch hung and was killed; the retry succeeded.
            assert outcomes[1].attempts >= 2
            assert ctx.stats.retries == 1
        assert ctx.tracer.counts[WORKER_KILL] >= 1

    def test_deadline_kills_do_not_degrade_to_serial(self):
        # Three always-on hangs, MAX_POOL_FAILURES=2: if deadline kills
        # counted as pool failures the executor would degrade to serial
        # execution -- where an unbounded hang can never be interrupted.
        # They must not count, however many pools the guard reaps.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with configure(jobs=2, clock=time.monotonic, job_timeout_s=0.5,
                           faults=["hang:#0:always", "hang:#2:always",
                                   "hang:#4:always"]) as ctx:
                outcomes = sweep_outcomes(echo_jobs(6))
        for i, outcome in enumerate(outcomes):
            if i in (0, 2, 4):
                assert isinstance(outcome.last_error.exception,
                                  JobTimeoutError)
            else:
                assert outcome.ok
        assert ctx.tracer.counts[WORKER_KILL] >= 1
        assert POOL_DEGRADE not in ctx.tracer.counts

    def test_worker_kill_events_reach_the_trace(self):
        sink = CaptureSink()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with configure(jobs=2, clock=time.monotonic, job_timeout_s=0.5,
                           faults="hang:#0", tracer=Tracer(sinks=[sink])):
                sweep_outcomes(echo_jobs(3))
        kinds = [e.kind for e in sink.events]
        assert "worker.kill" in kinds
        assert "job.deadline" in kinds

    def test_bounded_hang_within_budget_is_harmless(self):
        with configure(jobs=2, clock=time.monotonic, job_timeout_s=30.0,
                       faults="hang:#0:0.05"):
            outcomes = sweep_outcomes(echo_jobs(3))
        assert all(o.ok for o in outcomes)

    def test_serial_ignores_unbounded_hangs(self):
        # The serial oracle of a pool chaos plan must terminate: an
        # unbounded hang only wedges daemonic pool workers.
        with configure(faults="hang:#1"):
            outcomes = sweep_outcomes(echo_jobs(3))
        assert all(o.ok for o in outcomes)

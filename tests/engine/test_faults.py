"""FaultSpec grammar, matching/firing semantics, and plan coercion."""

from __future__ import annotations

import errno
import pickle

import pytest

from repro.engine import Job, TRANSIENT, PERMANENT
from repro.errors import ConfigurationError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedPermanentError,
    InjectedTransientError,
    parse_fault_plan,
)


def job_for(config="baseline", function="Auth-G"):
    class P:
        abbrev = function

        def describe(self):
            return function

    return Job.make(P(), None, "cfg", config)


class TestParse:
    def test_index_selector(self):
        spec = FaultSpec.parse("fail:#3")
        assert spec.action == "fail"
        assert spec.index == 3
        assert spec.times == 1
        assert spec.error == TRANSIENT

    def test_field_selector_with_options(self):
        spec = FaultSpec.parse("fail:config=jukebox:permanent:always")
        assert spec.field == "config"
        assert spec.value == "jukebox"
        assert spec.error == PERMANENT
        assert spec.times == 0

    def test_wildcard_and_times(self):
        spec = FaultSpec.parse("kill:*:x3")
        assert spec.action == "kill"
        assert spec.index is None and spec.field is None
        assert spec.times == 3

    def test_whitespace_is_tolerated(self):
        spec = FaultSpec.parse(" corrupt : #0 ")
        assert spec.action == "corrupt"
        assert spec.index == 0

    @pytest.mark.parametrize("bad", [
        "fail",                      # no selector
        "explode:#1",                # unknown action
        "fail:#x",                   # non-integer index
        "fail:three",                # unknown selector shape
        "fail:machine=sky",          # unknown field
        "fail:#1:xq",                # malformed times
        "fail:#1:sometimes",         # unknown option
        "fail:#1:x-1",               # negative times
    ])
    def test_malformed_specs_are_configuration_errors(self, bad):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(bad)

    def test_parse_fills_the_essentials(self):
        assert FaultSpec.parse("fail:#3") == FaultSpec("fail", index=3)
        assert (FaultSpec.parse("fail:config=jukebox:always")
                == FaultSpec("fail", field="config", value="jukebox",
                             times=0))

    @pytest.mark.parametrize("action", ["hang", "slow", "enospc", "torn"])
    def test_chaos_actions_parse(self, action):
        spec = FaultSpec.parse(f"{action}:#2")
        assert spec.action == action and spec.index == 2

    def test_seconds_amount_parses_on_timed_actions(self):
        assert FaultSpec.parse("hang:#1:0.25").amount == 0.25
        assert FaultSpec.parse("slow:*:0.1:always").amount == 0.1
        assert FaultSpec.parse("hang:#1").amount is None  # forever

    @pytest.mark.parametrize("bad", [
        "fail:#1:0.5",               # seconds on an untimed action
        "torn:#1:0.5",               # seconds on a disk action
        "hang:#1:-2",                # negative seconds
    ])
    def test_misplaced_amounts_are_configuration_errors(self, bad):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(bad)

    def test_parse_keeps_the_amount(self):
        assert (FaultSpec.parse("hang:#1:0.25")
                == FaultSpec("hang", index=1, amount=0.25))
        assert FaultSpec.parse("slow:*") == FaultSpec("slow")


class TestMatching:
    def test_index_selector_matches_only_that_cell(self):
        spec = FaultSpec.parse("fail:#3")
        assert spec.matches(job_for(), 3)
        assert not spec.matches(job_for(), 4)

    def test_field_selector_matches_by_job_field(self):
        spec = FaultSpec.parse("fail:config=jukebox")
        assert spec.matches(job_for(config="jukebox"), 0)
        assert not spec.matches(job_for(config="baseline"), 0)

    def test_function_selector(self):
        spec = FaultSpec.parse("fail:function=Auth-G")
        assert spec.matches(job_for(function="Auth-G"), 0)
        assert not spec.matches(job_for(function="Email-P"), 0)

    def test_wildcard_matches_everything(self):
        spec = FaultSpec.parse("fail:*")
        assert spec.matches(job_for(), 0)
        assert spec.matches(job_for(config="jukebox"), 99)

    def test_fires_respects_times(self):
        once = FaultSpec.parse("fail:#0")
        assert once.fires(0)
        assert not once.fires(1)
        always = FaultSpec.parse("fail:#0:always")
        assert all(always.fires(n) for n in range(5))

    def test_make_error_class_follows_spec(self):
        transient = FaultSpec.parse("fail:#0").make_error(job_for(), 0, 0)
        permanent = FaultSpec.parse("fail:#0:permanent").make_error(
            job_for(), 0, 0)
        assert isinstance(transient, InjectedTransientError)
        assert isinstance(permanent, InjectedPermanentError)


class TestPlan:
    def test_coerce_accepts_strings_specs_and_plans(self):
        plan = FaultPlan.coerce(["fail:#1", FaultSpec.parse("kill:#2")])
        assert len(plan.specs) == 2
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce("fail:#1").specs[0].index == 1

    def test_coerce_rejects_junk(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultPlan.coerce([42])

    def test_truthiness_tracks_content(self):
        assert not FaultPlan()
        assert FaultPlan.coerce("fail:#0")

    def test_fail_fault_raises_only_while_it_fires(self):
        plan = FaultPlan.coerce("fail:#0:x1")
        with pytest.raises(InjectedTransientError):
            plan.on_execute(job_for(), 0, attempt=0, dispatch=0)
        # Second attempt: the fault is spent.
        plan.on_execute(job_for(), 0, attempt=1, dispatch=1)

    def test_kill_fault_is_inert_outside_pool_workers(self):
        plan = FaultPlan.coerce("kill:*:always")
        # The current process is not a daemonic pool worker, so this
        # must return instead of calling os._exit.
        plan.on_execute(job_for(), 0, attempt=0, dispatch=0)

    def test_should_corrupt(self):
        plan = FaultPlan.coerce(["corrupt:#1", "fail:#2"])
        assert plan.should_corrupt(job_for(), 1)
        assert not plan.should_corrupt(job_for(), 2)

    def test_store_errno_arms_only_enospc_matches(self):
        plan = FaultPlan.coerce(["enospc:#1", "torn:#2"])
        assert plan.store_errno(job_for(), 1) == errno.ENOSPC
        assert plan.store_errno(job_for(), 2) is None

    def test_should_tear(self):
        plan = FaultPlan.coerce(["torn:#2", "enospc:#1"])
        assert plan.should_tear(job_for(), 2)
        assert not plan.should_tear(job_for(), 1)

    def test_bounded_hang_and_slow_run_in_the_main_process(self):
        # Timed delays are safe anywhere; only *unbounded* hangs are
        # restricted to daemonic pool workers.
        plan = FaultPlan.coerce(["hang:#0:0.001", "slow:#0:0.001"])
        plan.on_execute(job_for(), 0, attempt=0, dispatch=0)  # returns

    def test_unbounded_hang_is_inert_outside_pool_workers(self):
        plan = FaultPlan.coerce("hang:*:always")
        # Were this honoured here, the test suite would wedge forever.
        plan.on_execute(job_for(), 0, attempt=0, dispatch=0)

    def test_plans_are_picklable(self):
        plan = FaultPlan.coerce(["fail:#1:permanent", "kill:*:x2"])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_parse_fault_plan_helper(self):
        assert parse_fault_plan([]).specs == ()
        plan = parse_fault_plan(["fail:#1", "corrupt:*"])
        assert [s.action for s in plan.specs] == ["fail", "corrupt"]

    def test_plan_keeps_its_specs_in_order(self):
        plan = parse_fault_plan(["fail:#1", "kill:#2:always"])
        assert plan.specs == (FaultSpec("fail", index=1),
                              FaultSpec("kill", index=2, times=0))
        assert FaultPlan().specs == ()

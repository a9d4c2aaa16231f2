"""End-to-end observability: traced sweeps cross-checked against stats.

These tests drive real :func:`repro.engine.sweep` batches (over the
millisecond-cheap fake provider) with tracing wired the way the CLI wires
it, then assert the three acceptance properties of the trace layer:

* the summarized trace agrees with the engine's ``SweepStats`` *exactly*;
* identical re-runs produce identical traces modulo the injected clock;
* observability never perturbs ``Job.key()`` (tracing cannot split the
  result cache).
"""

from __future__ import annotations

import tests.engine.fake_provider  # noqa: F401  (registers diff_numeric)
from repro.engine import FailurePolicy, configure, sweep
from repro.engine.job import Job
from repro.experiments.common import RunConfig
from tests.obs.clocks import FrozenClock, TickClock
from repro.obs.summarize import read_trace, summarize
from repro.workloads.suite import suite_subset

PROVIDER = "tests.engine.fake_provider"
CFG = RunConfig(invocations=2, warmup=1, seed=5)


def grid_jobs():
    profiles = suite_subset(["Auth-G", "ProdL-G"])
    return [Job.make(p, None, CFG, "diff_numeric", provider=PROVIDER,
                     scale=s)
            for p in profiles for s in (1.0, 2.0)]


def strip_t(events):
    """The clock-independent projection of a trace."""
    return [(e.seq, e.kind, e.fields) for e in events]


class TestTraceMatchesSweepStats:
    def assert_trace_agrees(self, trace_path, stats, cached=True):
        summary = summarize(read_trace(trace_path))
        assert summary.jobs == stats.jobs
        assert summary.count("cache.hit") == stats.hits
        assert summary.count("retry.backoff") == stats.retries
        assert summary.failures == stats.failures
        if cached:
            # With a result cache every simulated cell leaves a miss and
            # (when it succeeds) a store record.
            assert summary.count("cache.miss") == stats.misses
            assert summary.count("cache.store") == stats.stores
        else:
            assert summary.cache_lookups == 0
        return summary

    def test_cold_then_warm_cached_sweeps(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with configure(cache_dir=tmp_path / "cache", trace_path=trace,
                       clock=TickClock()) as ctx:
            sweep(grid_jobs())
            sweep(grid_jobs())
        # 4 misses then 4 hits; the summarize() cross-check against the
        # two sweep.end records runs implicitly inside assert_trace_agrees.
        assert ctx.stats.hits == 4 and ctx.stats.misses == 4
        self.assert_trace_agrees(trace, ctx.stats)

    def test_pooled_cold_then_warm_sweeps(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with configure(jobs=2, cache_dir=tmp_path / "cache",
                       trace_path=trace, clock=TickClock()) as ctx:
            sweep(grid_jobs())
            sweep(grid_jobs())
        assert ctx.stats.hits == 4 and ctx.stats.misses == 4
        summary = self.assert_trace_agrees(trace, ctx.stats)
        # Pool workers never see the tracer: the parent records every
        # dispatch and harvest, one each per simulated cell.
        assert summary.count("executor.dispatch") == 4
        assert summary.count("executor.harvest") == 4
        assert len(summary.slowest(10)) == 4

    def test_retried_fault_appears_in_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with configure(trace_path=trace, faults="fail:#1",
                       policy=FailurePolicy(retries=1)) as ctx:
            sweep(grid_jobs())
        assert ctx.stats.retries == 1
        self.assert_trace_agrees(trace, ctx.stats, cached=False)
        kinds = [e.kind for e in read_trace(trace)]
        assert kinds.count("retry.backoff") == 1
        assert kinds.count("executor.dispatch") == 5  # 4 cells + 1 retry

    def test_sweep_begin_records_the_retry_count(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with configure(trace_path=trace, policy=FailurePolicy(retries=2)):
            sweep(grid_jobs())
        begin = [e.fields_dict() for e in read_trace(trace)
                 if e.kind == "sweep.begin"]
        assert begin == [{"jobs": 4, "retries": 2}]

    def test_uncached_sweep_traces_dispatch_per_cell(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with configure(trace_path=trace) as ctx:
            sweep(grid_jobs())
        summary = self.assert_trace_agrees(trace, ctx.stats, cached=False)
        assert summary.count("executor.dispatch") == 4
        assert summary.count("executor.harvest") == 4


class TestTraceDeterminism:
    def run_traced(self, tmp_path, label, clock):
        trace = tmp_path / f"{label}.jsonl"
        with configure(cache_dir=tmp_path / f"cache-{label}",
                       trace_path=trace, clock=clock):
            sweep(grid_jobs())
        return trace

    def test_identical_runs_identical_traces_with_identical_clocks(
            self, tmp_path):
        a = self.run_traced(tmp_path, "a", TickClock())
        b = self.run_traced(tmp_path, "b", TickClock())
        assert a.read_bytes() == b.read_bytes()

    def test_different_clocks_differ_only_in_t(self, tmp_path):
        a = read_trace(self.run_traced(tmp_path, "a", TickClock()))
        b = read_trace(self.run_traced(tmp_path, "c", FrozenClock(100.0)))
        assert strip_t(a) == strip_t(b)
        assert [e.t for e in a] != [e.t for e in b]

    def test_warm_reruns_are_trace_identical(self, tmp_path):
        cache = tmp_path / "cache"
        with configure(cache_dir=cache):
            sweep(grid_jobs())  # populate

        def warm_run(label):
            trace = tmp_path / f"{label}.jsonl"
            with configure(cache_dir=cache, trace_path=trace,
                           clock=TickClock()) as ctx:
                sweep(grid_jobs())
                assert ctx.stats.hits == 4
            return trace

        assert warm_run("w1").read_bytes() == warm_run("w2").read_bytes()


class TestTracingNeverPerturbsJobs:
    def test_job_keys_are_tracer_independent(self, tmp_path):
        baseline = [job.key() for job in grid_jobs()]
        with configure(trace_path=tmp_path / "trace.jsonl",
                       clock=TickClock()):
            traced = [job.key() for job in grid_jobs()]
            sweep(grid_jobs())
            after_sweep = [job.key() for job in grid_jobs()]
        assert baseline == traced == after_sweep

    def test_traced_results_match_untraced(self, tmp_path):
        with configure():
            plain = sweep(grid_jobs())
        with configure(trace_path=tmp_path / "trace.jsonl",
                       clock=TickClock()):
            traced = sweep(grid_jobs())
        assert plain == traced


class TestAlwaysOnCollector:
    def test_default_context_tracer_counts_without_any_wiring(self):
        with configure() as ctx:
            sweep(grid_jobs())
        counts = ctx.tracer.counts
        assert counts["sweep.begin"] == counts["sweep.end"] == 1
        assert counts["executor.dispatch"] == 4
        assert "obs: " in ctx.tracer.describe()

    def test_footer_counters_survive_context_exit(self, tmp_path):
        with configure(trace_path=tmp_path / "t.jsonl") as ctx:
            sweep(grid_jobs())
        # The JSONL sink is closed on exit, but the per-kind counters
        # (what the runner footer reads) survive.
        assert ctx.tracer.events_emitted == sum(
            ctx.tracer.counts.values()) == 10

"""sweep(): ordering, memoization, executor equivalence, context nesting."""

from __future__ import annotations

import gc
import math
import threading
import warnings

import pytest

from repro.engine import (
    EngineContext,
    Job,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    Task,
    configure,
    current_context,
    get_executor,
    sweep,
    sweep_configs,
)
from repro.errors import ConfigurationError
from repro.experiments.common import RunConfig
from repro.sim.params import skylake
from repro.workloads.suite import get_profile

CFG = RunConfig(invocations=2, warmup=1, instruction_scale=0.1)
FUNCTIONS = ("Auth-G", "Email-P")


def _grid_jobs():
    machine = skylake()
    return [Job.make(get_profile(a), machine, CFG, c)
            for a in FUNCTIONS for c in ("baseline", "jukebox")]


class TestOrdering:
    def test_results_follow_submission_order(self):
        jobs = _grid_jobs()
        results = sweep(jobs)
        assert len(results) == len(jobs)
        # Jukebox reduces CPI vs. baseline for the same function, so the
        # slotting is observable, not just positional.
        for i in range(0, len(jobs), 2):
            assert results[i].cpi > results[i + 1].cpi

    def test_sweep_configs_shape(self):
        runs = sweep_configs([get_profile(a) for a in FUNCTIONS],
                             skylake(), CFG, ("baseline", "jukebox"))
        assert set(runs) == set(FUNCTIONS)
        for cell in runs.values():
            assert set(cell) == {"baseline", "jukebox"}


class TestMemoization:
    def test_second_sweep_is_all_hits(self, tmp_path):
        jobs = _grid_jobs()
        with configure(cache_dir=tmp_path / "c") as ctx:
            cold = sweep(jobs)
            assert ctx.stats.misses == len(jobs)
            assert ctx.stats.stores == len(jobs)
            warm = sweep(jobs)
            assert ctx.stats.hits == len(jobs)
            assert ctx.stats.misses == len(jobs)  # unchanged
        assert [r.cpi for r in warm] == [r.cpi for r in cold]

    def test_cache_shared_across_contexts(self, tmp_path):
        jobs = _grid_jobs()[:1]
        with configure(cache_dir=tmp_path / "c"):
            sweep(jobs)
        with configure(cache_dir=tmp_path / "c") as ctx:
            sweep(jobs)
            assert ctx.stats.hits == 1
            assert ctx.stats.misses == 0

    def test_no_cache_by_default(self):
        ctx = current_context()
        assert ctx.cache is None

    def test_partial_warm_cache_only_simulates_the_gap(self, tmp_path):
        jobs = _grid_jobs()
        with configure(cache_dir=tmp_path / "c"):
            sweep(jobs[:2])
        with configure(cache_dir=tmp_path / "c") as ctx:
            sweep(jobs)
            assert ctx.stats.hits == 2
            assert ctx.stats.misses == 2


class TestExecutorEquivalence:
    def test_parallel_equals_serial_bitwise(self, tmp_path):
        jobs = _grid_jobs()
        serial = sweep(jobs)
        with configure(jobs=2):
            parallel = sweep(jobs)
        for s, p in zip(serial, parallel):
            assert s.cpi == p.cpi  # exact, not isclose: bit-identical
            assert s.cycles == p.cycles
            assert s.instructions == p.instructions

    def test_get_executor_dispatch(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(4), ProcessExecutor)
        with pytest.raises(ConfigurationError):
            get_executor(0)

    def test_process_executor_single_job_stays_in_process(self):
        # len(tasks) <= 1 short-circuits to serial: no pool spin-up cost.
        [outcome] = ProcessExecutor(jobs=8).run_tasks(
            [Task(job=_grid_jobs()[0], index=0)])
        assert math.isfinite(outcome.unwrap().cpi)


class TestContextNesting:
    def test_innermost_wins_and_unwinds(self, tmp_path):
        root = current_context()
        with configure(jobs=1) as outer:
            assert current_context() is outer
            with configure(jobs=2, cache_dir=tmp_path / "c") as inner:
                assert current_context() is inner
                assert isinstance(inner.executor, ProcessExecutor)
                assert isinstance(inner.cache, ResultCache)
            assert current_context() is outer
        assert current_context() is root

    def test_explicit_context_overrides_stack(self, tmp_path):
        ctx = EngineContext(cache=ResultCache(tmp_path / "c"))
        jobs = _grid_jobs()[:1]
        ambient_before = current_context().stats.snapshot()
        sweep(jobs, context=ctx)
        sweep(jobs, context=ctx)
        assert ctx.stats.hits == 1
        # The ambient context's accounting is untouched.
        delta = current_context().stats.since(ambient_before)
        assert delta.jobs == 0

    def test_configure_is_isolated_per_thread(self):
        """One thread's configure() exit must never pop a context another
        thread pushed (the stack is a ContextVar, not a module global)."""
        seen = {}

        def worker():
            seen["ambient"] = current_context()
            with configure(jobs=1) as ctx:
                seen["inside_is_own"] = current_context() is ctx
            seen["after"] = current_context()

        with configure(jobs=1) as outer:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert current_context() is outer
        assert seen["inside_is_own"]
        # The worker never saw this thread's context, and unwound to its
        # own ambient root.
        assert seen["ambient"] is not outer
        assert seen["after"] is seen["ambient"]

    @pytest.mark.parametrize("flaw, error", [
        ("unusable-cache-root", FileExistsError),
        ("no-workers", ConfigurationError),
    ])
    def test_a_failed_configure_closes_what_it_opened(self, tmp_path, flaw,
                                                     error):
        """A configure call that fails leaves no trace file open for the
        collector (whose ResourceWarning, raised in a finalizer, is
        recorded here: as an error it would only be printed), and an
        unusable cache root leaves an existing trace as it was."""
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        bad = ({"cache_dir": blocker} if flaw == "unusable-cache-root"
               else {"jobs": 0})
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b"0123456789")
        root = current_context()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(error):
                with configure(trace_path=trace, **bad):
                    pass
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []
        assert current_context() is root
        if flaw == "unusable-cache-root":
            assert trace.read_bytes() == b"0123456789"

    def test_stats_describe(self):
        with configure() as ctx:
            assert ctx.stats.describe() == "engine: no simulation cells"
            sweep(_grid_jobs()[:1])
            assert "1 cells" in ctx.stats.describe()
            assert "1 simulated" in ctx.stats.describe()

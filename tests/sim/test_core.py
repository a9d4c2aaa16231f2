"""Tests for the analytic core timing model."""

import pytest

from repro.sim.core import Simulator
from repro.sim.params import skylake
from repro.units import LINE_SIZE
from repro.workloads.trace import LoopSpec, TraceBuilder

CODE = 0x5555_0000_0000
DATA = 0x0000_2000_0000


def build_trace(fn):
    builder = TraceBuilder()
    fn(builder)
    return builder.build()


class TestBasicAccounting:
    def test_retiring_cycles(self):
        trace = build_trace(lambda b: b.fetch(CODE, insts=8))
        core = Simulator(skylake())
        result = core.run(trace)
        assert result.instructions == 8
        assert result.topdown.retiring == pytest.approx(
            8 / skylake().core.issue_width)

    def test_cold_fetch_charges_fetch_latency(self):
        trace = build_trace(lambda b: b.fetch(CODE, insts=4))
        core = Simulator(skylake())
        result = core.run(trace)
        assert result.topdown.fetch_latency > 0
        assert result.fetch_sources == {"memory": 1}

    def test_warm_refetch_is_free(self):
        def body(b):
            b.fetch(CODE, 4)
            b.fetch(CODE, 4)
        result = Simulator(skylake()).run(build_trace(body))
        assert result.fetch_sources == {"memory": 1, "l1": 1}

    def test_taken_branches_charge_fetch_bandwidth(self):
        t1 = build_trace(lambda b: b.fetch(CODE, 4, taken_branches=0))
        t2 = build_trace(lambda b: b.fetch(CODE, 4, taken_branches=3))
        r1 = Simulator(skylake()).run(t1)
        r2 = Simulator(skylake()).run(t2)
        assert r2.topdown.fetch_bandwidth > r1.topdown.fetch_bandwidth

    def test_loads_charge_backend(self):
        trace = build_trace(lambda b: b.load(DATA, count=4))
        result = Simulator(skylake()).run(trace)
        assert result.topdown.backend_bound > 0
        assert result.topdown.fetch_latency == 0

    def test_branch_site_charges_bad_speculation(self):
        trace = build_trace(lambda b: b.branch_site(CODE + 16, 100, 0.5))
        result = Simulator(skylake()).run(trace)
        assert result.topdown.bad_speculation > 0

    def test_runs_start_at_cycle_zero(self):
        """Every run starts its clock at 0.0, a float, on a fresh or a
        warm simulator alike."""
        core = Simulator(skylake(), backend="scalar")
        cycles = []
        access_instr = core.hierarchy.access_instr

        def recording(addr, cycle):
            cycles.append(cycle)
            return access_instr(addr, cycle)

        core.hierarchy.access_instr = recording
        trace = build_trace(lambda b: b.fetch(CODE, insts=4))
        core.run(trace)
        core.run(trace)
        assert cycles == [0.0, 0.0]
        assert all(type(cycle) is float for cycle in cycles)

    def test_cycles_equals_topdown_total(self):
        def body(b):
            b.fetch(CODE, 8, 1)
            b.load(DATA, 4)
            b.branch_site(CODE + 16, 50, 0.9)
        result = Simulator(skylake()).run(build_trace(body))
        assert result.cycles == pytest.approx(result.topdown.total_cycles)


class TestLoops:
    def test_loop_instructions_counted(self):
        spec = LoopSpec(blocks=(CODE, CODE + LINE_SIZE), iterations=100,
                        insts_per_iteration=20)
        trace = build_trace(lambda b: b.loop(spec))
        result = Simulator(skylake()).run(trace)
        assert result.instructions == 2000

    def test_small_loop_refetches_nothing(self):
        """A loop body resident in the L1-I misses only on the first pass."""
        spec = LoopSpec(blocks=(CODE, CODE + LINE_SIZE), iterations=50,
                        insts_per_iteration=16)
        result = Simulator(skylake()).run(build_trace(lambda b: b.loop(spec)))
        assert result.stats.l1i.inst_misses == 2

    def test_large_loop_steady_state_charged(self):
        """A loop body exceeding the L1-I pays L2-hit latency per pass."""
        machine = skylake()
        n_blocks = machine.l1i.num_lines * 2
        blocks = tuple(CODE + i * LINE_SIZE for i in range(n_blocks))
        small = LoopSpec(blocks=blocks[:4], iterations=50,
                         insts_per_iteration=4 * 10)
        big = LoopSpec(blocks=blocks, iterations=50,
                       insts_per_iteration=n_blocks * 10)
        r_small = Simulator(skylake()).run(
            build_trace(lambda b: b.loop(small)))
        r_big = Simulator(skylake()).run(build_trace(lambda b: b.loop(big)))
        # Per-instruction fetch latency is higher for the L1I-overflowing loop.
        fl_small = r_small.topdown.fetch_latency / r_small.instructions
        fl_big = r_big.topdown.fetch_latency / r_big.instructions
        assert fl_big > fl_small

    def test_loop_exit_mispredicts_once(self):
        spec = LoopSpec(blocks=(CODE,), iterations=10, insts_per_iteration=10)
        result = Simulator(skylake()).run(build_trace(lambda b: b.loop(spec)))
        assert result.mispredicts == 1


class TestFlush:
    def test_flush_recolds_everything(self):
        def body(b):
            b.fetch(CODE, 4)
            b.branch_site(CODE + 4, 10, 0.9)
        trace = build_trace(body)
        core = Simulator(skylake())
        first = core.run(trace)
        warm = core.run(trace)
        core.flush_microarch_state()
        lukewarm = core.run(trace)
        assert warm.cycles < first.cycles
        assert lukewarm.cycles == pytest.approx(first.cycles)

    def test_flush_recolds_branch_sites(self):
        trace = build_trace(lambda b: b.branch_site(CODE, 100, 0.95))
        core = Simulator(skylake())
        first = core.run(trace)
        core.flush_microarch_state()
        again = core.run(trace)
        assert again.mispredicts == pytest.approx(first.mispredicts)


class TestResultHelpers:
    def test_cpi(self):
        trace = build_trace(lambda b: b.fetch(CODE, 100))
        result = Simulator(skylake()).run(trace)
        assert result.cpi == pytest.approx(result.cycles / 100)

    def test_mpki_delegates_to_stats(self):
        trace = build_trace(lambda b: b.fetch(CODE, 1000))
        result = Simulator(skylake()).run(trace)
        assert result.mpki("llc", "inst") == pytest.approx(1.0)

    def test_stats_are_per_invocation_deltas(self):
        trace = build_trace(lambda b: b.fetch(CODE, 4))
        core = Simulator(skylake())
        r1 = core.run(trace)
        r2 = core.run(trace)
        assert r1.stats.l1i.inst_misses == 1
        assert r2.stats.l1i.inst_misses == 0
        assert r2.stats.l1i.inst_hits == 1


class TestDeterminism:
    def test_same_trace_same_cycles(self, tiny_model):
        trace = tiny_model.invocation_trace(0)
        r1 = Simulator(skylake()).run(trace)
        r2 = Simulator(skylake()).run(trace)
        assert r1.cycles == pytest.approx(r2.cycles)
        assert r1.instructions == r2.instructions

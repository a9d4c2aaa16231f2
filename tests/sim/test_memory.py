"""Tests for the DRAM latency/bandwidth/traffic model."""

import pytest

from repro.sim.memory import MainMemory
from repro.sim.params import MemoryParams
from repro.sim.stats import MemoryTraffic
from repro.units import LINE_SIZE


@pytest.fixture
def memory():
    return MainMemory(MemoryParams(), MemoryTraffic())


class TestDemandPath:
    def test_demand_latency(self, memory):
        assert memory.demand_fetch(instruction=True) == MemoryParams().latency

    def test_demand_traffic_classes(self, memory):
        memory.demand_fetch(instruction=True)
        memory.demand_fetch(instruction=False)
        memory.demand_fetch(instruction=False)
        assert memory.traffic.demand_inst == LINE_SIZE
        assert memory.traffic.demand_data == 2 * LINE_SIZE

    def test_contention_scales_latency(self, memory):
        base = memory.demand_fetch(instruction=True)
        memory.contention = 1.5
        assert memory.demand_fetch(instruction=True) == pytest.approx(base * 1.5)


class TestPrefetchPath:
    def test_prefetch_uses_row_hit_latency(self, memory):
        assert memory.prefetch_fetch() == MemoryParams().row_hit_latency

    def test_contention_leaves_prefetch_latency(self, memory):
        # Replay streams hit open rows; only demand misses queue behind
        # the co-running tenants' traffic.
        memory.contention = 2.0
        assert memory.prefetch_fetch() == MemoryParams().row_hit_latency

    def test_prefetch_charged_overpredicted_until_credited(self, memory):
        memory.prefetch_fetch()
        assert memory.traffic.prefetch_overpredicted == LINE_SIZE
        assert memory.traffic.prefetch_useful == 0
        memory.credit_useful_prefetch()
        assert memory.traffic.prefetch_overpredicted == 0
        assert memory.traffic.prefetch_useful == LINE_SIZE


class TestMetadataPath:
    def test_metadata_traffic(self, memory):
        memory.metadata_write(54)
        memory.metadata_read(1024)
        assert memory.traffic.metadata_record == 54
        assert memory.traffic.metadata_replay == 1024

    def test_metadata_traffic_accumulates(self, memory):
        for _ in range(3):
            memory.metadata_write(7)
            memory.metadata_read(14)
        assert memory.traffic.metadata_record == 21
        assert memory.traffic.metadata_replay == 42
        assert memory.traffic.demand_inst == memory.traffic.demand_data == 0


class TestTrafficAccounting:
    def test_total_and_overhead(self, memory):
        memory.demand_fetch(instruction=True)
        memory.prefetch_fetch()
        memory.prefetch_fetch()
        memory.credit_useful_prefetch()
        memory.metadata_write(100)
        t = memory.traffic
        assert t.total == 2 * LINE_SIZE + LINE_SIZE + 100
        # Overhead = unused prefetch + metadata.
        assert t.overhead == LINE_SIZE + 100
        assert t.baseline_equivalent == 2 * LINE_SIZE

    def test_overhead_fraction(self, memory):
        memory.demand_fetch(instruction=True)
        memory.prefetch_fetch()
        frac = memory.traffic.overhead_fraction()
        assert frac == pytest.approx(1.0)

    def test_snapshot_delta(self, memory):
        memory.demand_fetch(instruction=True)
        snap = memory.traffic.snapshot()
        memory.demand_fetch(instruction=True)
        delta = memory.traffic.delta(snap)
        assert delta.demand_inst == LINE_SIZE


class TestStreaming:
    def test_cycles_per_line_matches_bandwidth(self, memory):
        assert memory.cycles_per_line == pytest.approx(
            LINE_SIZE / MemoryParams().bytes_per_cycle)

    def test_cycles_per_line_inverse_in_bandwidth(self):
        base = MemoryParams()
        slow = MainMemory(base, MemoryTraffic())
        double = MemoryParams(bytes_per_cycle=2 * base.bytes_per_cycle)
        fast = MainMemory(double, MemoryTraffic())
        assert fast.cycles_per_line == pytest.approx(slow.cycles_per_line / 2)

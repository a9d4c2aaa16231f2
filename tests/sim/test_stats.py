"""Tests for the statistics counter bundles."""

import pytest

from repro.sim.stats import AccessStats, HierarchyStats, MemoryTraffic


class TestAccessStats:
    def test_mpki(self):
        s = AccessStats(inst_misses=10, data_misses=5)
        assert s.mpki(1000, "inst") == 10.0
        assert s.mpki(1000, "data") == 5.0
        assert s.mpki(1000, "all") == 15.0

    def test_mpki_zero_instructions(self):
        assert AccessStats(inst_misses=10).mpki(0) == 0.0

    def test_mpki_unknown_kind(self):
        with pytest.raises(ValueError):
            AccessStats().mpki(1000, "bogus")

    def test_aggregates(self):
        s = AccessStats(inst_hits=3, inst_misses=1, data_hits=2, data_misses=4)
        assert s.accesses == 10
        assert s.hits == 5
        assert s.misses == 5

    def test_snapshot_is_independent(self):
        s = AccessStats(inst_hits=1)
        snap = s.snapshot()
        s.inst_hits += 10
        assert snap.inst_hits == 1

    def test_delta(self):
        s = AccessStats(inst_hits=5, data_misses=2)
        snap = s.snapshot()
        s.inst_hits += 3
        s.data_misses += 1
        d = s.delta(snap)
        assert d.inst_hits == 3
        assert d.data_misses == 1
        assert d.inst_misses == 0


class TestMemoryTraffic:
    def test_delta(self):
        t = MemoryTraffic(demand_inst=64)
        snap = t.snapshot()
        t.metadata_replay += 32
        d = t.delta(snap)
        assert d.demand_inst == 0
        assert d.metadata_replay == 32


class TestHierarchyStats:
    def test_levels_mapping(self):
        h = HierarchyStats()
        assert set(h.levels()) == {"l1i", "l1d", "l2", "llc", "itlb", "dtlb"}

    def test_delta_covers_all_levels(self):
        h = HierarchyStats()
        snap = h.snapshot()
        h.l2.inst_misses += 7
        h.memory.demand_inst += 64
        d = h.delta(snap)
        assert d.l2.inst_misses == 7
        assert d.memory.demand_inst == 64
        assert d.l1i.inst_misses == 0

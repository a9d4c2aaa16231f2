"""Runtime-invariant contract tests.

The acceptance bar: contracts are active in default sim runs, and a
corrupted stats object is caught (hits + misses != accesses, negative
counters, invalid Top-Down sums, cache structural damage, over-stuffed
metadata buffers).
"""

import pytest

from repro.errors import ContractViolationError
from repro.lint import contracts
from repro.core.metadata import MetadataBuffer
from repro.core.regions import RegionGeometry
from repro.sim.cache import SetAssocCache
from repro.sim.core import Simulator
from repro.sim.params import CacheParams, skylake
from repro.sim.stats import AccessStats, HierarchyStats, MemoryTraffic
from repro.sim.topdown import TopDownBreakdown
from repro.units import KB


class TestAlwaysOn:
    def test_corrupt_stats_raise(self):
        corrupt = AccessStats(inst_hits=1)
        corrupt.inst_misses = -3
        with pytest.raises(ContractViolationError):
            contracts.check_access_stats(corrupt, name="l1i")

    def test_generic_hook(self):
        contracts.check(True, "never raised")
        with pytest.raises(ContractViolationError, match="broken"):
            contracts.check(False, "broken")


class TestAccessStatsContracts:
    def test_clean_stats_pass(self):
        stats = AccessStats(inst_hits=10, inst_misses=2, data_hits=5)
        contracts.check_access_stats(stats, name="l1i")

    def test_negative_counter_caught(self):
        stats = AccessStats(inst_hits=10)
        stats.data_misses = -1
        with pytest.raises(ContractViolationError, match="negative"):
            contracts.check_access_stats(stats, name="l1d")

    def test_unbalanced_accessor_caught(self):
        class LyingStats(AccessStats):
            @property
            def accesses(self):
                return 999  # disagrees with hits + misses

        with pytest.raises(ContractViolationError, match="accesses"):
            contracts.check_access_stats(LyingStats(inst_hits=1), "l2")

    def test_prefetch_hits_cannot_exceed_demand(self):
        stats = AccessStats(inst_hits=2, inst_misses=1)
        stats.inst_prefetch_hits = 7
        with pytest.raises(ContractViolationError, match="prefetch"):
            contracts.check_access_stats(stats, name="l2")


class TestTrafficAndTopdownContracts:
    def test_negative_demand_traffic_caught(self):
        traffic = MemoryTraffic(demand_inst=-64)
        with pytest.raises(ContractViolationError, match="demand_inst"):
            contracts.check_memory_traffic(traffic)

    def test_negative_topdown_component_caught(self):
        breakdown = TopDownBreakdown(retiring=10.0, backend_bound=-5.0)
        with pytest.raises(ContractViolationError, match="backend_bound"):
            contracts.check_topdown(breakdown)

    def test_corrupted_total_caught(self):
        class LyingBreakdown(TopDownBreakdown):
            @property
            def total_cycles(self):
                return 12345.0

        with pytest.raises(ContractViolationError, match="total_cycles"):
            contracts.check_topdown(LyingBreakdown(retiring=1.0))

    def test_hierarchy_validate_names_the_level(self):
        stats = HierarchyStats()
        stats.llc.data_hits = -2
        with pytest.raises(ContractViolationError, match="llc"):
            contracts.check_hierarchy_stats(stats)


class TestCacheContracts:
    def _cache(self):
        return SetAssocCache(CacheParams("L1X", size=4 * KB, assoc=4,
                                         latency=1))

    def test_clean_cache_passes_deep_check(self):
        cache = self._cache()
        for block in range(100):
            cache.insert(block)
        cache.check_invariants(deep=True)

    def test_overfull_set_caught(self):
        cache = self._cache()
        cache._sets[0].extend(range(0, 1024, 16))  # 64 lines in a 4-way set
        with pytest.raises(ContractViolationError, match="4-way"):
            cache.check_invariants()

    def test_duplicate_tag_caught(self):
        cache = self._cache()
        cache.insert(0)
        cache._sets[0].append(0)
        with pytest.raises(ContractViolationError, match="duplicate"):
            cache.check_invariants(deep=True)

    def test_stale_prefetch_ledger_caught(self):
        cache = self._cache()
        cache.insert(5, prefetch=True)
        cache._sets[5 & cache._set_mask].remove(5)  # evict behind its back
        with pytest.raises(ContractViolationError):
            cache.check_invariants(deep=True)

    def test_flush_runs_the_check(self):
        cache = self._cache()
        cache._sets[0].extend(range(0, 1024, 16))
        with pytest.raises(ContractViolationError):
            cache.flush()


class TestMetadataContracts:
    def _buffer(self, limit=1 * KB):
        return MetadataBuffer(geometry=RegionGeometry(1 * KB),
                              limit_bytes=limit)

    def test_append_rejects_empty_vector(self):
        buffer = self._buffer()
        with pytest.raises(ContractViolationError, match="at least one"):
            buffer.append((1, 0))

    def test_append_rejects_oversized_vector(self):
        buffer = self._buffer()
        with pytest.raises(ContractViolationError, match="wider"):
            buffer.append((1, 1 << 16))  # 1KB region has 16 lines

    def test_overstuffed_buffer_caught(self):
        buffer = self._buffer(limit=8)  # one 54-bit entry fits
        buffer._entries.extend((region, 1) for region in range(50))
        with pytest.raises(ContractViolationError, match="limit register"):
            buffer.validate()

    def test_replay_count_mismatch_caught(self):
        with pytest.raises(ContractViolationError, match="record phase"):
            contracts.check_replay_counts(
                entries_replayed=3, recorded_entries=4,
                lines_prefetched=10, duplicates_skipped=0, unique_blocks=10,
            )


class TestContractsActiveInDefaultRuns:
    def test_core_run_invokes_invocation_contract(self, monkeypatch):
        """Simulator.run checks every result without opting in."""
        from repro.workloads import FunctionModel, get_profile

        calls = []
        real_check = contracts.check_invocation
        monkeypatch.setattr("repro.sim.core.contracts.check_invocation",
                            lambda result: (calls.append(result),
                                            real_check(result)))
        core = Simulator(skylake())
        profile = get_profile("Auth-G").scaled(0.05)
        result = core.run(FunctionModel(profile, seed=3).invocation_trace(0))
        assert calls == [result]

"""Tests for the memory hierarchy: demand paths, prefetch fills, merges."""

import pytest

from repro.sim.hierarchy import FillQueue, MemoryHierarchy
from repro.sim.params import skylake
from repro.units import LINE_SHIFT, LINE_SIZE

ADDR = 0x5555_0000_0000


@pytest.fixture
def hier():
    return MemoryHierarchy(skylake())


class TestFillQueue:
    def test_drain_respects_time(self):
        q = FillQueue()
        q.schedule([(10.0, 1), (20.0, 2), (30.0, 3)])
        assert q.drain(15.0) == [1]
        assert q.drain(25.0) == [2]
        assert q.pending == 1

    def test_inflight_tracking(self):
        q = FillQueue()
        q.schedule([(10.0, 1)])
        assert q.completion_of(1) == 10.0
        q.take(1)
        assert q.completion_of(1) is None

    def test_duplicate_block_keeps_earliest(self):
        q = FillQueue()
        q.schedule([(10.0, 1)])
        q.schedule([(5.0, 1)])
        assert q.completion_of(1) == 5.0
        q.schedule([(50.0, 1)])
        assert q.completion_of(1) == 5.0

    def test_clear(self):
        q = FillQueue()
        q.schedule([(10.0, 1)])
        q.clear()
        assert q.pending == 0
        assert q.completion_of(1) is None


class TestInstructionPath:
    def test_cold_fetch_comes_from_memory(self, hier):
        stall, level = hier.access_instr(ADDR, 0.0)
        assert level == "memory"
        assert stall > 0
        assert hier.stats.l1i.inst_misses == 1
        assert hier.stats.l2.inst_misses == 1
        assert hier.stats.llc.inst_misses == 1
        assert hier.stats.memory.demand_inst == LINE_SIZE

    def test_second_fetch_hits_l1(self, hier):
        hier.access_instr(ADDR, 0.0)
        stall, level = hier.access_instr(ADDR, 100.0)
        assert level == "l1"
        assert stall == 0.0

    def test_l2_hit_after_l1_eviction(self, hier):
        hier.access_instr(ADDR, 0.0)
        # Evict from the 512-line L1-I by touching many same-set blocks.
        n_sets = hier.l1i.num_sets
        for i in range(1, 12):
            hier.access_instr(ADDR + i * n_sets * LINE_SIZE, 0.0)
        stall, level = hier.access_instr(ADDR, 0.0)
        assert level == "l2"

    def test_miss_latency_ladder_monotone(self, hier):
        hier.access_instr(ADDR, 0.0)
        l1_stall, l1 = hier.access_instr(ADDR, 0.0)
        n_sets = hier.l1i.num_sets
        for i in range(1, 12):
            hier.access_instr(ADDR + i * n_sets * LINE_SIZE, 0.0)
        walks = hier.stats.itlb.inst_misses
        l2_stall, l2 = hier.access_instr(ADDR, 0.0)
        mem_stall, mem = hier.access_instr(ADDR + LINE_SIZE, 0.0)
        assert (l1, l2, mem) == ("l1", "l2", "memory")
        # Both measured fetches stay on ADDR's page: no iTLB walk is
        # folded into their stalls.
        assert hier.stats.itlb.inst_misses == walks
        assert 0.0 == l1_stall < l2_stall < mem_stall

    def test_fetch_fills_all_levels(self, hier):
        hier.access_instr(ADDR, 0.0)
        block = ADDR >> LINE_SHIFT
        assert hier.l1i.contains(block)
        assert hier.l2.contains(block)
        assert hier.llc.contains(block)

    def test_itlb_miss_charged_once(self, hier):
        hier.access_instr(ADDR, 0.0)
        assert hier.stats.itlb.inst_misses == 1
        hier.access_instr(ADDR + LINE_SIZE, 0.0)
        assert hier.stats.itlb.inst_misses == 1
        assert hier.stats.itlb.inst_hits == 1

    def test_flush_forgets_everything(self, hier):
        hier.access_instr(ADDR, 0.0)
        hier.flush_caches()
        stall, level = hier.access_instr(ADDR, 0.0)
        assert level == "memory"


class TestDataPath:
    def test_cold_load(self, hier):
        stall, level = hier.access_data(0x7000_0000, write=False, cycle=0.0)
        assert level == "memory"
        assert stall > 0
        assert hier.stats.memory.demand_data == LINE_SIZE

    def test_store_miss_not_charged(self, hier):
        hier.access_data(0x7000_0000, write=False, cycle=0.0)  # warm DTLB
        stall, level = hier.access_data(0x7000_0100, write=True, cycle=0.0)
        assert stall == 0.0  # stores retire through the store buffer
        assert level == "memory"  # still allocates and counts traffic

    def test_next_line_prefetch_from_l2(self, hier):
        addr = 0x7000_0000
        hier.access_data(addr, False, 0.0)
        hier.access_data(addr + LINE_SIZE, False, 0.0)  # fills L2 for +1 line
        # Evict both from tiny L1D view by touching conflicting blocks.
        n_sets = hier.l1d.num_sets
        for i in range(2, 12):
            hier.access_data(addr + i * n_sets * LINE_SIZE, False, 0.0)
        # Re-access first: the next-line (+1) should be pulled into L1D.
        hier.access_data(addr, False, 0.0)
        assert hier.l1d.contains((addr + LINE_SIZE) >> LINE_SHIFT)

    def test_data_does_not_touch_itlb(self, hier):
        hier.access_data(0x7000_0000, False, 0.0)
        assert hier.stats.itlb.inst_misses == 0
        assert hier.stats.dtlb.data_misses == 1


class TestPerfectICache:
    def test_blocks_accumulate_and_survive_flush(self, hier):
        hier.perfect_icache = True
        _, level1 = hier.access_instr(ADDR, 0.0)
        assert level1 == "memory"  # first-ever touch
        hier.flush_caches()
        stall, level2 = hier.access_instr(ADDR, 0.0)
        assert level2 == "perfect"
        # Only the I-TLB walk may be charged; no cache-miss stall.
        itlb_walk = hier.machine.itlb.walk_latency
        assert stall <= itlb_walk

    def test_perfect_disabled_by_default(self, hier):
        assert not hier.perfect_icache


class TestL2PrefetchFills:
    def test_completed_fill_gives_l2_prefetch_hit(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(10.0, block)])
        stall, level = hier.access_instr(ADDR, 100.0)
        assert level == "l2"
        assert hier.stats.l2.inst_prefetch_hits == 1
        assert hier.stats.memory.prefetch_useful == LINE_SIZE
        assert hier.stats.memory.prefetch_overpredicted == 0

    def test_fill_also_lands_in_llc(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(10.0, block)])
        hier.access_instr(ADDR + 0x10_0000, 100.0)  # trigger drain
        assert hier.llc.contains(block)

    def test_inflight_merge_is_late_coverage(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(1000.0, block)])
        stall, level = hier.access_instr(ADDR, 100.0)
        assert level == "prefetch_late"
        assert stall > 0
        assert hier.stats.l2.inst_prefetch_hits == 1

    def test_merge_capped_at_demand_equivalent(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(10_000_000.0, block)])
        stall_merge, _ = hier.access_instr(ADDR, 0.0)
        fresh = MemoryHierarchy(skylake())
        stall_demand, _ = fresh.access_instr(ADDR, 0.0)
        # A merge is never worse than a demand miss plus the L2 hit hop.
        assert stall_merge <= stall_demand + fresh.machine.l2.latency

    def test_unused_fill_counts_overpredicted_at_finish(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(10.0, block)])
        hier.finish_invocation()
        assert hier.l2._pf_pending  # resident, never demand-referenced
        assert hier.stats.memory.prefetch_overpredicted == LINE_SIZE

    def test_record_hook_fires_on_prefetched_first_use(self, hier):
        calls = []

        class Hook:
            def on_fetch(self, addr, cycle):
                pass

            def on_l2_inst_miss(self, addr, cycle):
                calls.append(addr)

        hier.record_hook = Hook()
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(10.0, block)])
        hier.access_instr(ADDR, 100.0)
        # The first use of a prefetched line is recorded like a miss, so
        # Jukebox metadata stays stable across covered invocations.
        assert ADDR in calls


class TestL1IPrefetchFills:
    def test_timely_fill_hits_l1(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l1i_prefetches([(10.0, block)])
        stall, level = hier.access_instr(ADDR, 100.0)
        assert level == "l1"
        assert hier.stats.l1i.inst_prefetch_hits == 1

    def test_late_fill_merges(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l1i_prefetches([(1000.0, block)])
        stall, level = hier.access_instr(ADDR, 100.0)
        assert level == "l1_prefetch_late"

    def test_l2_resident_line_preempts_l1i_merge(self, hier):
        hier.access_instr(ADDR, 0.0)        # brings into L2
        hier.l1i.flush()                     # L1I no longer holds it
        block = ADDR >> LINE_SHIFT
        hier.schedule_l1i_prefetches([(1_000_000.0, block)])
        stall, level = hier.access_instr(ADDR, 10.0)
        assert level == "l2"

    def test_earlier_jukebox_fill_preempts_l1i_merge(self, hier):
        block = ADDR >> LINE_SHIFT
        hier.schedule_l2_prefetches([(50.0, block)])
        hier.schedule_l1i_prefetches([(500.0, block)])
        stall, level = hier.access_instr(ADDR, 10.0)
        assert level == "prefetch_late"


class TestPrefetchSourceLatency:
    def test_from_l2(self, hier):
        hier.access_instr(ADDR, 0.0)
        lat, from_dram = hier.prefetch_source_latency(ADDR >> LINE_SHIFT)
        assert not from_dram
        assert lat == hier.machine.l2.latency

    def test_from_dram_installs_nothing(self, hier):
        block = (ADDR + 0x100000) >> LINE_SHIFT
        lat, from_dram = hier.prefetch_source_latency(block)
        assert from_dram
        assert not hier.l2.contains(block)
        assert not hier.llc.contains(block)
        assert hier.stats.memory.prefetch_overpredicted == LINE_SIZE

"""Tests for the Jukebox replay phase."""

import pytest

from repro.core.metadata import MetadataBuffer
from repro.core.regions import RegionGeometry
from repro.core.replayer import JukeboxReplayer
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import skylake
from repro.units import KB, LINE_SHIFT, PAGE_SHIFT
from tests.sim.resident import is_resident

GEO = RegionGeometry(1 * KB)
BASE = 0x5555_0000_0000


def make_buffer(entries) -> MetadataBuffer:
    buf = MetadataBuffer(geometry=GEO, limit_bytes=16 * KB)
    for e in entries:
        buf.append(e)
    return buf


@pytest.fixture
def hier():
    return MemoryHierarchy(skylake())


class TestReplay:
    def test_schedules_all_encoded_lines(self, hier):
        region = GEO.region_of(BASE)
        buf = make_buffer([(region, 0b1011)])
        stats = JukeboxReplayer(hier).replay(buf)
        assert stats.lines_prefetched == 3
        assert hier.l2_fills.pending == 3

    def test_empty_buffer_is_noop(self, hier):
        stats = JukeboxReplayer(hier).replay(make_buffer([]))
        assert stats.lines_prefetched == 0
        assert hier.stats.memory.metadata_replay == 0

    def test_metadata_read_traffic(self, hier):
        buf = make_buffer([(GEO.region_of(BASE), 1)])
        JukeboxReplayer(hier).replay(buf)
        assert hier.stats.memory.metadata_replay == buf.size_bytes

    def test_completion_times_bandwidth_spaced(self, hier):
        region = GEO.region_of(BASE)
        buf = make_buffer([(region, (1 << 16) - 1)])
        JukeboxReplayer(hier).replay(buf)
        completions = sorted(hier.l2_fills.inflight.values())
        spacing = completions[1] - completions[0]
        assert spacing == pytest.approx(hier.memory.cycles_per_line)

    def test_replay_order_matches_metadata_order(self, hier):
        regions = [GEO.region_of(BASE + i * 4 * KB) for i in range(3)]
        buf = make_buffer([(r, 1) for r in regions])
        JukeboxReplayer(hier).replay(buf)
        fills = hier.l2_fills._schedule
        blocks = [b for _c, b in fills]
        expected = [GEO.region_base(r) >> LINE_SHIFT for r in regions]
        assert blocks == expected

    def test_duplicate_regions_prefetched_once(self, hier):
        region = GEO.region_of(BASE)
        buf = make_buffer([(region, 0b11), (region, 0b110)])
        stats = JukeboxReplayer(hier).replay(buf)
        assert stats.lines_prefetched == 3  # union of the two vectors
        assert stats.duplicate_lines_skipped == 1

    def test_warms_itlb(self, hier):
        region = GEO.region_of(BASE)
        buf = make_buffer([(region, 1)])
        stats = JukeboxReplayer(hier).replay(buf)
        assert stats.tlb_warmed_pages == 1
        assert is_resident(hier.itlb, BASE >> PAGE_SHIFT)

    def test_prefetch_traffic_charged_per_line(self, hier):
        region = GEO.region_of(BASE)
        buf = make_buffer([(region, 0b111)])
        JukeboxReplayer(hier).replay(buf)
        assert hier.stats.memory.prefetch_overpredicted == 3 * 64

    def test_first_fill_completes_one_line_after_the_metadata_read(self,
                                                                   hier):
        """The replay starts at cycle 0: the first prefetch issues once
        the first metadata line arrives, and completes one line later."""
        region = GEO.region_of(BASE)
        buf = make_buffer([(region, 1)])
        JukeboxReplayer(hier).replay(buf)
        completion = next(iter(hier.l2_fills.inflight.values()))
        memory = hier.memory
        assert isinstance(completion, float)
        assert completion == (float(memory.params.row_hit_latency)
                              + memory.cycles_per_line)

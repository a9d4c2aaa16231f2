"""Tests for the Code Region Reference Buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crrb import CRRB
from repro.core.regions import RegionGeometry
from repro.errors import ConfigurationError
from repro.units import KB, LINE_SIZE

GEO = RegionGeometry(1 * KB)


def region_addr(region: int, line: int = 0) -> int:
    return region * 1024 + line * LINE_SIZE


class TestRecording:
    def test_first_miss_allocates(self):
        crrb = CRRB(4, GEO)
        assert crrb.record(region_addr(1)) is None
        assert len(crrb) == 1
        assert crrb.drain() == [(1, 1)]

    def test_same_region_coalesces(self):
        crrb = CRRB(4, GEO)
        crrb.record(region_addr(1, 0))
        crrb.record(region_addr(1, 3))
        crrb.record(region_addr(1, 15))
        assert len(crrb) == 1
        assert crrb.hits == 2
        assert crrb.drain() == [(1, (1 << 0) | (1 << 3) | (1 << 15))]

    def test_fifo_eviction_order(self):
        crrb = CRRB(2, GEO)
        crrb.record(region_addr(1))
        crrb.record(region_addr(2))
        evicted = crrb.record(region_addr(3))
        assert evicted == (1, 1)  # oldest region, its vector

    def test_hits_do_not_refresh_fifo_age(self):
        """FIFO means allocation order, not recency (Sec. 3.2)."""
        crrb = CRRB(2, GEO)
        crrb.record(region_addr(1))
        crrb.record(region_addr(2))
        crrb.record(region_addr(1, 5))   # hit on region 1
        evicted = crrb.record(region_addr(3))
        assert evicted[0] == 1           # region 1 still evicts first

    def test_evicted_entry_is_immutable(self):
        """A miss to an evicted region allocates a *new* entry."""
        crrb = CRRB(1, GEO)
        crrb.record(region_addr(1, 0))
        crrb.record(region_addr(2))      # evicts region 1
        evicted = crrb.record(region_addr(1, 7))  # region 1 again
        assert evicted == (2, 1)
        assert crrb.drain() == [(1, 1 << 7)]  # fresh vector

    def test_vector_bit_positions(self):
        crrb = CRRB(4, GEO)
        crrb.record(region_addr(9, 12))
        assert crrb.drain() == [(9, 1 << 12)]


class TestDrain:
    def test_drain_preserves_fifo_order(self):
        crrb = CRRB(8, GEO)
        for region in (5, 3, 9):
            crrb.record(region_addr(region))
        drained = crrb.drain()
        assert [r for r, _v in drained] == [5, 3, 9]
        assert len(crrb) == 0

    def test_drain_counts_evictions(self):
        crrb = CRRB(8, GEO)
        crrb.record(region_addr(1))
        crrb.record(region_addr(2))
        crrb.drain()
        assert crrb.evictions == 2

    def test_flush_discards_silently(self):
        crrb = CRRB(8, GEO)
        crrb.record(region_addr(1))
        crrb.flush()
        assert len(crrb) == 0
        assert crrb.evictions == 0


class TestConfiguration:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            CRRB(0, GEO)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), max_size=200),
           st.sampled_from([1, 8, 16, 32]))
    def test_occupancy_bounded_and_unique(self, addrs, capacity):
        crrb = CRRB(capacity, GEO)
        for addr in addrs:
            crrb.record(addr)
        assert len(crrb) <= capacity
        regions = [r for r, _ in crrb.drain()]
        assert len(set(regions)) == len(regions)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), max_size=200))
    def test_every_miss_lands_in_exactly_one_entry(self, addrs):
        """Union of all evicted + drained vectors covers every recorded line."""
        crrb = CRRB(4, GEO)
        produced = []
        for addr in addrs:
            evicted = crrb.record(addr)
            if evicted is not None:
                produced.append(evicted)
        produced.extend(crrb.drain())
        covered = set()
        for region, vector in produced:
            covered.update(GEO.expand(region, vector))
        expected = {(a // LINE_SIZE) * LINE_SIZE for a in addrs}
        assert covered == expected

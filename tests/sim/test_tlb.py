"""Tests for the TLB model."""

from hypothesis import given, settings, strategies as st

from repro.sim.params import TLBParams
from repro.sim.tlb import TLB
from tests.sim.resident import is_resident, resident_lines


def make_tlb(entries=16, assoc=4) -> TLB:
    return TLB(TLBParams("T", entries=entries, assoc=assoc))


class TestTLB:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert not tlb.access(5)
        assert tlb.access(5)

    def test_capacity_eviction_is_lru(self):
        tlb = make_tlb(entries=4, assoc=4)  # one set
        for page in range(4):
            tlb.access(page * tlb.num_sets)
        tlb.access(0)  # refresh page 0
        tlb.access(99 * tlb.num_sets)  # evicts LRU = page 1*num_sets
        assert is_resident(tlb, 0)
        assert not is_resident(tlb, 1 * tlb.num_sets)

    def test_warm_prepopulates(self):
        tlb = make_tlb()
        assert not tlb.warm(7)
        assert tlb.access(7)

    def test_warm_reports_already_resident(self):
        tlb = make_tlb()
        tlb.access(7)
        assert tlb.warm(7)

    def test_flush(self):
        tlb = make_tlb()
        for page in range(8):
            tlb.access(page)
        tlb.flush()
        assert resident_lines(tlb) == 0
        assert not tlb.access(0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=200))
    def test_occupancy_bounded(self, pages):
        tlb = make_tlb(entries=16, assoc=4)
        for page in pages:
            tlb.access(page)
        assert resident_lines(tlb) <= 16

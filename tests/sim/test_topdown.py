"""Tests for Top-Down cycle accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.topdown import TopDownBreakdown


def sample() -> TopDownBreakdown:
    return TopDownBreakdown(retiring=100, fetch_latency=50, fetch_bandwidth=10,
                            bad_speculation=20, backend_bound=20)


class TestTopDownBreakdown:
    def test_total(self):
        assert sample().total_cycles == 200

    def test_frontend_bound(self):
        assert sample().frontend_bound == 60

    def test_cpi(self):
        assert sample().cpi(100) == 2.0

    def test_cpi_zero_instructions(self):
        assert sample().cpi(0) == 0.0

    def test_cpi_negative_instructions(self):
        assert sample().cpi(-5) == 0.0

    def test_empty_breakdown(self):
        td = TopDownBreakdown()
        assert td.total_cycles == 0.0
        assert td.frontend_bound == 0.0
        assert td.cpi(10) == 0.0

    def test_add_is_per_category(self):
        a = sample()
        b = TopDownBreakdown(retiring=1, fetch_latency=2, fetch_bandwidth=3,
                             bad_speculation=4, backend_bound=5)
        assert a + b == TopDownBreakdown(retiring=101, fetch_latency=52,
                                         fetch_bandwidth=13,
                                         bad_speculation=24,
                                         backend_bound=25)

    def test_sub_is_per_category(self):
        a = sample()
        b = TopDownBreakdown(retiring=1, fetch_latency=2, fetch_bandwidth=3,
                             bad_speculation=4, backend_bound=5)
        assert a - b == TopDownBreakdown(retiring=99, fetch_latency=48,
                                         fetch_bandwidth=7,
                                         bad_speculation=16,
                                         backend_bound=15)

    def test_sum_from_empty_start(self):
        # Fig. 2 aggregates per-invocation stacks this way.
        total = sum([sample(), sample(), sample()], TopDownBreakdown())
        assert total.total_cycles == pytest.approx(600)
        assert total.frontend_bound == pytest.approx(180)

    def test_add_sub_roundtrip(self):
        a, b = sample(), sample()
        assert (a + b - b).total_cycles == pytest.approx(a.total_cycles)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=5,
                    max_size=5))
    def test_total_is_sum_of_categories(self, values):
        td = TopDownBreakdown(*values)
        assert td.total_cycles == pytest.approx(sum(values))

    @given(st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=0, max_value=1e6))
    def test_frontend_is_fetch_latency_plus_bandwidth(self, lat, bw):
        td = TopDownBreakdown(retiring=7, fetch_latency=lat,
                              fetch_bandwidth=bw)
        assert td.frontend_bound == pytest.approx(lat + bw)


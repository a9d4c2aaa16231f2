"""Tests for the co-tenant interference stressor."""

import pytest

from repro.errors import ConfigurationError
from repro.server.stressor import Stressor
from repro.sim.core import Simulator
from repro.sim.params import skylake

ADDR = 0x5555_0000_0000


@pytest.fixture
def core():
    return Simulator(skylake())


def warm_up(core, n_blocks=64):
    for i in range(n_blocks):
        core.hierarchy.access_instr(ADDR + i * 64, 0.0)


class TestFullThrash:
    def test_obliterates_all_state(self, core):
        warm_up(core)
        core.flush_microarch_state()
        assert core.hierarchy.l1i.occupancy == 0
        assert core.hierarchy.l2.occupancy == 0
        assert core.hierarchy.llc.occupancy == 0


class TestIdleGap:
    def test_zero_gap_is_noop(self, core):
        warm_up(core)
        occupancy = core.hierarchy.llc.occupancy
        Stressor(load=0.5).idle_gap(core, 0.0)
        assert core.hierarchy.llc.occupancy == occupancy

    def test_zero_load_is_noop(self, core):
        warm_up(core)
        before = core.hierarchy.l1i.occupancy
        Stressor(load=0.0).idle_gap(core, 1000.0)
        assert core.hierarchy.l1i.occupancy == before

    def test_long_gap_thrashes_private_caches(self, core):
        warm_up(core)
        Stressor(load=0.5).idle_gap(core, 10.0)
        assert core.hierarchy.l1i.occupancy == 0
        assert core.hierarchy.l2.occupancy == 0

    def test_short_gap_keeps_some_private_state(self, core):
        warm_up(core, n_blocks=256)
        Stressor(load=0.5).idle_gap(core, 0.5)
        resident = sum(1 for i in range(256)
                       if core.hierarchy.l1i.contains((ADDR >> 6) + i))
        assert resident > 0

    def test_llc_decay_is_graded(self, core):
        def survivors(gap_ms):
            c = Simulator(skylake())
            for i in range(4096):
                c.hierarchy.llc.insert((ADDR >> 6) + i)
            Stressor(load=0.5, seed=1).idle_gap(c, gap_ms)
            return sum(1 for i in range(4096)
                       if c.hierarchy.llc.contains((ADDR >> 6) + i))

        s10, s100, s1000 = survivors(10), survivors(100), survivors(1000)
        assert s10 > s100 > s1000
        assert s1000 < 0.02 * 4096  # saturated: Fig. 1 plateau

    def test_rejects_negative_gap(self, core):
        with pytest.raises(ConfigurationError):
            Stressor(load=0.5).idle_gap(core, -1.0)

    def test_rejects_bad_load(self):
        with pytest.raises(ConfigurationError):
            Stressor(load=1.5)


class TestContention:
    def test_contention_applied_and_cleared(self, core):
        stressor = Stressor(load=0.5)
        stressor.apply_contention(core)
        assert core.hierarchy.memory.contention > 1.0
        stressor.clear_contention(core)
        assert core.hierarchy.memory.contention == 1.0

    def test_contention_scales_with_load(self, core):
        low, high = Simulator(skylake()), core
        Stressor(load=0.2).apply_contention(low)
        Stressor(load=0.9).apply_contention(high)
        assert high.hierarchy.memory.contention > low.hierarchy.memory.contention


class TestAnalyticSurvival:
    def test_expected_survival_monotone_in_gap(self, core):
        stressor = Stressor(load=0.5)
        survival = [stressor.expected_llc_survival(core, gap)
                    for gap in (1, 10, 100, 1000)]
        assert survival == sorted(survival, reverse=True)
        assert survival[0] > 0.9
        assert survival[-1] < 0.05

    def test_expected_matches_simulated(self, core):
        """The analytic per-set Poisson survival matches bulk_pollute."""
        stressor = Stressor(load=0.5, seed=2)
        llc = core.hierarchy.llc
        n = llc.params.num_lines  # fill the LLC completely
        for i in range(n):
            llc.insert((ADDR >> 6) + i)
        gap = 50.0
        expected = stressor.expected_llc_survival(core, gap)
        stressor.idle_gap(core, gap)
        actual = sum(1 for i in range(n)
                     if core.hierarchy.llc.contains((ADDR >> 6) + i)) / n
        assert actual == pytest.approx(expected, abs=0.12)

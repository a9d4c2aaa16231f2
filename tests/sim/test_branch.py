"""Tests for the BTB and the per-site branch model."""

import pytest

from repro.sim.branch import BTB, SiteBranchModel
from repro.sim.params import CoreParams


class TestBTB:
    def test_first_access_misses(self):
        btb = BTB(CoreParams())
        assert not btb.access(0x1000)
        assert btb.access(0x1000)

    def test_capacity(self):
        params = CoreParams(btb_entries=16, btb_assoc=2)
        btb = BTB(params)
        # Fill one set beyond capacity.
        pcs = [((i * btb.num_sets) << 2) for i in range(3)]
        for pc in pcs:
            btb.access(pc)
        assert not btb.access(pcs[0])  # evicted

    def test_flush(self):
        btb = BTB(CoreParams())
        btb.access(0x1000)
        btb.flush()
        assert not btb.access(0x1000)

    def test_counts_lookups_and_misses(self):
        btb = BTB(CoreParams())
        for pc in (0x1000, 0x1000, 0x2000, 0x1000):
            btb.access(pc)
        assert btb.lookups == 4
        assert btb.misses == 2


class TestSiteBranchModel:
    def make(self):
        btb = BTB(CoreParams())
        return SiteBranchModel(btb)

    def test_cold_site_costs_one_mispredict_and_bubble(self):
        model = self.make()
        mispredicts, bubbles = model.execute_site(0x100, 1, 0.9)
        assert mispredicts == 1.0
        assert bubbles == 1

    def test_warm_site_steady_rate(self):
        model = self.make()
        model.execute_site(0x100, 1, 0.9)
        mispredicts, bubbles = model.execute_site(0x100, 1000, 0.9)
        expected = 1000 * 2 * 0.9 * 0.1 * SiteBranchModel.CORRELATION_MISS_FACTOR
        assert mispredicts == pytest.approx(expected)
        assert bubbles == 0

    def test_biased_sites_mispredict_less(self):
        model = self.make()
        m_biased, _ = model.execute_site(0x200, 1001, 0.97)
        m_even, _ = model.execute_site(0x300, 1001, 0.5)
        assert m_biased < m_even

    def test_flush_recolds_all_sites(self):
        model = self.make()
        model.execute_site(0x100, 100, 0.9)
        model.flush()
        mispredicts, bubbles = model.execute_site(0x100, 1, 0.9)
        assert mispredicts == 1.0
        assert bubbles == 1

    def test_executions_accumulate(self):
        model = self.make()
        model.execute_site(0x100, 10, 0.9)
        model.execute_site(0x200, 5, 0.9)
        assert model.executions == 15
        assert model.cold_mispredicts == 2  # one per newly trained site

    def test_flush_forgets_training_not_counts(self):
        model = self.make()
        model.execute_site(0x100, 10, 0.9)
        before = model.mispredicts
        model.flush()
        assert model.executions == 10
        assert model.cold_mispredicts == 1
        model.execute_site(0x100, 1, 0.9)
        assert model.cold_mispredicts == 2
        assert model.mispredicts == pytest.approx(before + 1.0)

    @pytest.mark.parametrize("taken_prob", [0.0, 1.0])
    def test_fully_biased_trained_site_never_mispredicts(self, taken_prob):
        model = self.make()
        model.execute_site(0x100, 1, taken_prob)
        mispredicts, bubbles = model.execute_site(0x100, 1000, taken_prob)
        assert mispredicts == 0.0
        assert bubbles == 0

"""The arithmetic behind the paper bands, on hand-built inputs.

The Fig. 2, 3, 4, 9, 10 and 12 bands and the spectrum's regimes are
computed by small functions over simulation results.  Each case here
feeds one of them a synthetic input whose answer is known by hand, so a
slip in the arithmetic shows without running a sweep.
"""

import math
import warnings
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fig03_frontend, fig04_cpi_breakdown
from repro.experiments.ext_spectrum import (
    REGIME_COLD,
    REGIME_LUKEWARM,
    REGIME_WARM,
    _cell_dict,
    classify_regime,
)
from repro.experiments.fig02_topdown import Fig2Entry, Fig2Result
from repro.experiments.fig03_frontend import Fig3Entry, Fig3Result
from repro.experiments.fig04_cpi_breakdown import Fig4Result
from repro.experiments.fig09_storage import Fig9Result
from repro.experiments.fig10_speedup import Fig10Entry, Fig10Result, render
from repro.experiments.fig12_bandwidth import (
    Fig12Entry,
    Fig12Result,
    _sum_traffic,
)
from repro.sim.stats import MemoryTraffic
from repro.units import KB


def _stack(retiring=0.0, fetch_latency=0.0, fetch_bandwidth=0.0,
           bad_speculation=0.0, backend_bound=0.0):
    return {"retiring": retiring, "fetch_latency": fetch_latency,
            "fetch_bandwidth": fetch_bandwidth,
            "bad_speculation": bad_speculation,
            "backend_bound": backend_bound}


def _fig2(*pairs):
    """A Fig2Result with one entry per ``(reference, interleaved)``."""
    return Fig2Result(entries=[
        Fig2Entry(abbrev=f"F{i}", reference=ref, interleaved=itl)
        for i, (ref, itl) in enumerate(pairs)])


class TestClassifyRegime:
    TTL = 600_000.0

    def test_zero_iat_is_warm(self):
        assert classify_regime(0.0, self.TTL) == REGIME_WARM

    def test_iat_equal_to_ttl_is_still_lukewarm(self):
        """Eviction needs an idle time *above* the TTL."""
        assert classify_regime(self.TTL, self.TTL) == REGIME_LUKEWARM

    def test_iat_just_above_ttl_is_cold(self):
        assert classify_regime(self.TTL + 1e-6, self.TTL) == REGIME_COLD

    def test_negative_iat_is_rejected(self):
        with pytest.raises(ConfigurationError, match="iat_ms >= 0"):
            classify_regime(-1.0, self.TTL)

    def test_nonpositive_ttl_is_rejected(self):
        with pytest.raises(ConfigurationError, match="ttl_ms > 0"):
            classify_regime(10.0, 0.0)


class TestSpectrumCellDict:
    def test_latency_is_exec_plus_init_plus_page(self):
        """6e6 cycles over 2 invocations at 3 GHz is 1 ms per invocation."""
        cell = _cell_dict(REGIME_COLD, 700_000.0, 3.0, invocations=2,
                          cycles=6e6, instructions=4_000_000,
                          init_ms=2.5, page_ms=0.5)
        assert cell["exec_ms"] == pytest.approx(1.0)
        assert cell["latency_ms"] == pytest.approx(4.0)
        assert cell["regime"] == REGIME_COLD
        assert cell["iat_ms"] == 700_000.0

    def test_zero_invocations_cost_no_execution_time(self):
        cell = _cell_dict(REGIME_WARM, 0.0, 3.0, invocations=0, cycles=0.0,
                          instructions=0, init_ms=1.5)
        assert cell["exec_ms"] == 0.0
        assert cell["latency_ms"] == 1.5

    def test_page_split_is_echoed_not_summed(self):
        """Only ``page_ms`` enters the latency; the first-restore and
        replay components are reported beside it."""
        cell = _cell_dict(REGIME_COLD, 1.0, 2.0, invocations=1, cycles=0.0,
                          instructions=0, page_ms=3.0,
                          first_restore_page_ms=2.0, replay_page_ms=1.0,
                          faulted_pages=7, prefetched_pages=5)
        assert cell["latency_ms"] == 3.0
        assert (cell["first_restore_page_ms"], cell["replay_page_ms"],
                cell["faulted_pages"], cell["prefetched_pages"]) == (
                    2.0, 1.0, 7, 5)


class TestFig9SaturationBudget:
    BUDGETS = [2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB]

    def _result(self, geomeans, budgets=None):
        budgets = budgets if budgets is not None else self.BUDGETS
        return Fig9Result(budgets=list(budgets),
                          geomean=dict(zip(budgets, geomeans)))

    def test_plateau_starts_at_the_saturation_budget(self):
        result = self._result([0.05, 0.10, 0.15, 0.195, 0.20])
        assert result.saturation_budget() == 16 * KB

    def test_wider_threshold_picks_a_smaller_budget(self):
        result = self._result([0.05, 0.10, 0.15, 0.195, 0.20])
        assert result.saturation_budget(threshold=0.06) == 8 * KB

    def test_flat_curve_saturates_at_the_smallest_budget(self):
        assert self._result([0.2] * 5).saturation_budget() == 2 * KB

    def test_budgets_are_scanned_in_size_order(self):
        budgets = [32 * KB, 4 * KB, 16 * KB, 2 * KB, 8 * KB]
        result = self._result([0.20, 0.10, 0.195, 0.05, 0.15], budgets)
        assert result.saturation_budget() == 16 * KB

    def test_largest_budget_when_nothing_smaller_is_close(self):
        result = self._result([0.0, 0.0, 0.0, 0.0, 0.30])
        assert result.saturation_budget() == 32 * KB


class TestFig10Correlation:
    def _result(self, jukebox, perfect):
        return Fig10Result(entries=[
            Fig10Entry(abbrev=f"F{i}", baseline_cpi=1.0, jukebox_speedup=j,
                       perfect_speedup=p)
            for i, (j, p) in enumerate(zip(jukebox, perfect))])

    def test_linear_relation_is_perfectly_correlated(self):
        result = self._result([0.1, 0.2, 0.3], [0.2, 0.4, 0.6])
        assert result.correlation() == pytest.approx(1.0)

    def test_opposite_trends_are_anticorrelated(self):
        result = self._result([0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
        assert result.correlation() == pytest.approx(-1.0)

    def test_partial_agreement_has_known_pearson_r(self):
        # Deviations (-1, 0, 1) and (-1, 1, 0): r = 1 / 2.
        result = self._result([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        assert result.correlation() == pytest.approx(0.5)

    def test_fewer_than_two_functions_read_as_correlated(self):
        assert self._result([0.1], [0.4]).correlation() == 1.0

    @pytest.mark.parametrize("jukebox,perfect", [
        ([0.2, 0.2], [0.3, 0.4]),
        ([0.1, 0.2, 0.3], [0.4, 0.4, 0.4]),
        ([0.2, 0.2, 0.2], [0.4, 0.4, 0.4]),
    ])
    def test_tied_speedups_have_no_correlation(self, jukebox, perfect):
        """A series with no spread has no Pearson r: NaN without numpy's
        divide warning, rendered as ``r=n/a``."""
        result = self._result(jukebox, perfect)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(result.correlation())
            assert "correlation r=n/a" in render(result)


class TestFig2Arithmetic:
    def test_cpi_increase_is_relative_to_reference(self):
        entry = Fig2Entry("A", reference=_stack(1.0, 0.5, 0.5),
                          interleaved=_stack(1.0, 1.5, 0.5))
        assert entry.reference_cpi == pytest.approx(2.0)
        assert entry.interleaved_cpi == pytest.approx(3.0)
        assert entry.cpi_increase == pytest.approx(0.5)

    def test_frontend_fraction_reads_the_named_stack(self):
        entry = Fig2Entry("A", reference=_stack(1.0, 0.5, 0.5),
                          interleaved=_stack(1.0, 2.5, 0.5))
        assert entry.frontend_fraction("reference") == pytest.approx(0.5)
        assert entry.frontend_fraction("interleaved") == pytest.approx(0.75)

    def test_means_are_over_functions(self):
        fig2 = _fig2((_stack(1.0, 1.0), _stack(1.0, 2.0)),
                     (_stack(2.0), _stack(3.0, 1.0)))
        assert fig2.mean_cpi_increase == pytest.approx((0.5 + 1.0) / 2)
        assert fig2.mean_frontend_fraction("reference") == pytest.approx(
            0.25)
        assert fig2.mean_stack("interleaved")["retiring"] == pytest.approx(
            2.0)


class TestFig3FromFig2:
    def test_entries_copy_the_fetch_components(self):
        fig2 = _fig2((_stack(1.0, 0.4, 0.1), _stack(1.0, 0.9, 0.2)))
        (entry,) = fig03_frontend.from_fig2(fig2).entries
        assert entry == Fig3Entry(abbrev="F0", ref_fetch_latency=0.4,
                                  ref_fetch_bandwidth=0.1,
                                  int_fetch_latency=0.9,
                                  int_fetch_bandwidth=0.2)

    def test_mean_growth_over_functions(self):
        fig2 = _fig2((_stack(fetch_latency=0.5, fetch_bandwidth=0.2),
                      _stack(fetch_latency=1.0, fetch_bandwidth=0.25)),
                     (_stack(fetch_latency=0.25, fetch_bandwidth=0.4),
                      _stack(fetch_latency=1.0, fetch_bandwidth=0.4)))
        result = fig03_frontend.from_fig2(fig2)
        assert result.mean_latency_growth == pytest.approx((1.0 + 3.0) / 2)
        assert result.mean_bandwidth_growth == pytest.approx(
            (0.25 + 0.0) / 2)

    def test_zero_reference_stall_is_left_out_of_its_mean(self):
        """A function with no reference fetch-latency stall has no
        growth ratio; it must not count as 0% or divide by zero."""
        result = Fig3Result(entries=[
            Fig3Entry("A", ref_fetch_latency=0.0, ref_fetch_bandwidth=0.1,
                      int_fetch_latency=0.5, int_fetch_bandwidth=0.2),
            Fig3Entry("B", ref_fetch_latency=0.5, ref_fetch_bandwidth=0.1,
                      int_fetch_latency=1.0, int_fetch_bandwidth=0.1)])
        assert result.mean_latency_growth == pytest.approx(1.0)
        assert result.mean_bandwidth_growth == pytest.approx(0.5)

    def test_no_growth_measurable_reads_zero(self):
        assert Fig3Result().mean_latency_growth == 0.0
        zero = Fig3Result(entries=[Fig3Entry("A", 0.0, 0.0, 0.3, 0.3)])
        assert zero.mean_bandwidth_growth == 0.0

    def test_normalized_divides_by_the_reference_frontend(self):
        entry = Fig3Entry("A", ref_fetch_latency=0.3, ref_fetch_bandwidth=0.1,
                          int_fetch_latency=0.6, int_fetch_bandwidth=0.2)
        assert entry.normalized(entry.int_fetch_latency) == pytest.approx(
            1.5)
        assert Fig3Entry("B", 0.0, 0.0, 0.6, 0.2).normalized(0.6) == 0.0


class TestFig4FromFig2:
    def test_extra_cycles_split_by_component(self):
        fig2 = _fig2((_stack(1.0, 0.5, 0.25, 0.25, 0.5),
                      _stack(1.0, 1.25, 0.5, 0.25, 1.0)))
        result = fig04_cpi_breakdown.from_fig2(fig2)
        assert result.reference_cpi == pytest.approx(2.5)
        assert result.interleaved_cpi == pytest.approx(4.0)
        assert result.extra_fetch_latency == pytest.approx(0.75)
        assert result.extra_fetch_bandwidth == pytest.approx(0.25)
        assert result.extra_rest == pytest.approx(0.5)
        assert result.fetch_latency_share_of_extra == pytest.approx(0.5)
        assert result.normalized_interleaved == pytest.approx(1.6)

    def test_stacks_are_averaged_over_functions(self):
        fig2 = _fig2((_stack(1.0, 0.5), _stack(1.0, 1.5)),
                     (_stack(1.0, 0.5), _stack(1.0, 0.5)))
        result = fig04_cpi_breakdown.from_fig2(fig2)
        assert result.reference_cpi == pytest.approx(1.5)
        assert result.interleaved_cpi == pytest.approx(2.0)
        assert result.extra_fetch_latency == pytest.approx(0.5)

    def test_a_shrinking_component_adds_no_extra_cycles(self):
        """Components are clamped at zero: a fetch-bandwidth stall that
        shrinks under interleaving does not offset latency growth."""
        fig2 = _fig2((_stack(1.0, 0.5, 0.5), _stack(1.0, 1.0, 0.25)))
        result = fig04_cpi_breakdown.from_fig2(fig2)
        assert result.extra_fetch_bandwidth == 0.0
        assert result.extra_fetch_latency == pytest.approx(0.5)
        assert result.extra_rest == 0.0
        assert result.extra_total == pytest.approx(0.5)

    def test_no_extra_cycles_means_no_latency_share(self):
        result = Fig4Result(reference_cpi=2.0, interleaved_cpi=2.0,
                            extra_fetch_latency=0.0,
                            extra_fetch_bandwidth=0.0, extra_rest=0.0)
        assert result.fetch_latency_share_of_extra == 0.0
        assert result.normalized_interleaved == pytest.approx(1.0)

    def test_zero_reference_cpi_normalizes_to_zero(self):
        result = Fig4Result(reference_cpi=0.0, interleaved_cpi=2.0,
                            extra_fetch_latency=1.0,
                            extra_fetch_bandwidth=0.0, extra_rest=1.0)
        assert result.normalized_interleaved == 0.0


class TestFig12Overhead:
    def test_overhead_is_relative_to_baseline_traffic(self):
        entry = Fig12Entry("A", baseline_bytes=1000.0,
                           overpredicted_bytes=60.0,
                           metadata_record_bytes=25.0,
                           metadata_replay_bytes=15.0)
        assert entry.overhead_bytes == pytest.approx(100.0)
        assert entry.overhead_fraction == pytest.approx(0.1)
        assert entry.metadata_share == pytest.approx(0.4)

    def test_no_baseline_traffic_reads_no_overhead(self):
        entry = Fig12Entry("A", 0.0, 64.0, 0.0, 0.0)
        assert entry.overhead_fraction == 0.0
        assert entry.metadata_share == 0.0
        assert Fig12Entry("B", 100.0, 0.0, 0.0, 0.0).metadata_share == 0.0

    def test_mean_and_max_over_functions(self):
        result = Fig12Result(entries=[
            Fig12Entry("A", 1000.0, 100.0, 0.0, 0.0),
            Fig12Entry("B", 1000.0, 200.0, 50.0, 50.0)])
        assert result.mean_overhead == pytest.approx(0.2)
        assert result.max_overhead == pytest.approx(0.3)

    def test_metadata_share_mean_skips_overhead_free_functions(self):
        result = Fig12Result(entries=[
            Fig12Entry("A", 1000.0, 0.0, 0.0, 0.0),
            Fig12Entry("B", 1000.0, 60.0, 40.0, 0.0),
            Fig12Entry("C", 1000.0, 100.0, 0.0, 0.0)])
        assert result.mean_metadata_share == pytest.approx(0.2)
        assert Fig12Result().mean_metadata_share == 0.0


class TestFig12SumTraffic:
    @staticmethod
    def _result(**traffic):
        return SimpleNamespace(
            stats=SimpleNamespace(memory=MemoryTraffic(**traffic)))

    def test_every_traffic_class_is_summed(self):
        total = _sum_traffic([
            self._result(demand_inst=64, demand_data=128, prefetch_useful=1,
                         prefetch_overpredicted=2, metadata_record=3,
                         metadata_replay=4),
            self._result(demand_inst=640, demand_data=1280,
                         prefetch_useful=10, prefetch_overpredicted=20,
                         metadata_record=30, metadata_replay=40)])
        assert total == MemoryTraffic(
            demand_inst=704, demand_data=1408, prefetch_useful=11,
            prefetch_overpredicted=22, metadata_record=33,
            metadata_replay=44)

    def test_no_invocations_sum_to_zero_traffic(self):
        assert _sum_traffic([]) == MemoryTraffic()

    def test_inputs_are_left_unchanged(self):
        first = self._result(demand_inst=64)
        total = _sum_traffic([first, self._result(demand_inst=64)])
        assert total.demand_inst == 128
        assert first.stats.memory.demand_inst == 64

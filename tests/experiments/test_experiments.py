"""Micro-scale runs of every experiment module: structure and rendering.

These use a heavily scaled-down RunConfig and a 2-3 function subset; the
full-scale shape assertions live in tests/integration/.
"""

import pytest

from repro.experiments import (
    fig01_iat,
    fig02_topdown,
    fig03_frontend,
    fig04_cpi_breakdown,
    fig05_mpki,
    fig06_footprints,
    fig08_metadata,
    fig09_storage,
    fig10_speedup,
    fig11_coverage,
    fig12_bandwidth,
    fig13_pif,
    table1_config,
    table2_workloads,
    table3_mpki_reduction,
)
from repro.experiments.common import RunConfig
from repro.units import KB

MICRO = RunConfig(invocations=3, warmup=1, instruction_scale=0.15)
FNS = ["Auth-G", "Email-P"]


@pytest.fixture(scope="module")
def fig2_result():
    return fig02_topdown.run(MICRO, functions=FNS)


class TestFig01:
    @pytest.fixture(scope="class")
    def result(self):
        return fig01_iat.run(MICRO, functions=["Auth-G"],
                             iats_ms=(0.0, 10.0, 1000.0))

    def test_normalized_to_back_to_back(self, result):
        assert result.normalized_cpi["Auth-G"][0] == pytest.approx(1.0)

    def test_cpi_monotone_in_iat(self, result):
        series = result.normalized_cpi["Auth-G"]
        assert series[0] < series[1] < series[2]

    def test_render(self, result):
        out = fig01_iat.render(result)
        assert "Figure 1" in out and "Auth-G" in out


class TestFig02:
    def test_interleaved_cpi_higher(self, fig2_result):
        for entry in fig2_result.entries:
            assert entry.cpi_increase > 0.2

    def test_stacks_have_all_categories(self, fig2_result):
        for entry in fig2_result.entries:
            assert set(entry.reference) == set(fig02_topdown.CATEGORIES)

    def test_frontend_substantial(self, fig2_result):
        assert fig2_result.mean_frontend_fraction("reference") > 0.3

    def test_render(self, fig2_result):
        out = fig02_topdown.render(fig2_result)
        assert "Figure 2" in out and "Mean" in out


class TestFig03:
    def test_latency_grows_more_than_bandwidth(self, fig2_result):
        r3 = fig03_frontend.run(fig2=fig2_result)
        assert r3.mean_latency_growth > r3.mean_bandwidth_growth

    def test_render(self, fig2_result):
        out = fig03_frontend.render(fig03_frontend.run(fig2=fig2_result))
        assert "Figure 3" in out and "fetch latency" in out


class TestFig04:
    def test_fetch_latency_dominates_extra(self, fig2_result):
        r4 = fig04_cpi_breakdown.run(fig2=fig2_result)
        assert r4.fetch_latency_share_of_extra > 0.4
        assert r4.normalized_interleaved > 1.2

    def test_components_sum(self, fig2_result):
        r4 = fig04_cpi_breakdown.run(fig2=fig2_result)
        assert r4.reference_cpi + r4.extra_total == pytest.approx(
            r4.interleaved_cpi, rel=0.01)

    def test_render(self, fig2_result):
        out = fig04_cpi_breakdown.render(fig04_cpi_breakdown.run(fig2=fig2_result))
        assert "Figure 4" in out


class TestFig05:
    @pytest.fixture(scope="class")
    def result(self):
        return fig05_mpki.run(MICRO, functions=FNS)

    def test_llc_instruction_misses_only_when_interleaved(self, result):
        for e in result.entries:
            assert e.llc_ref_inst < 2.0
            assert e.llc_int_inst > 5.0

    def test_instruction_misses_exceed_data(self, result):
        for e in result.entries:
            assert e.l2_int_inst > e.l2_int_data

    def test_render(self, result):
        out = fig05_mpki.render(result)
        assert "Figure 5a" in out and "Figure 5b" in out


class TestFig06:
    @pytest.fixture(scope="class")
    def result(self):
        return fig06_footprints.run(MICRO, functions=FNS, invocations=6)

    def test_footprints_in_range(self, result):
        for e in result.entries:
            assert 200 * KB < e.footprint_bytes["mean"] < 900 * KB

    def test_jaccard_high(self, result):
        for e in result.entries:
            assert e.jaccard["mean"] > 0.8

    def test_pair_count(self, result):
        assert result.entries[0].n_pairs == 15  # 6*5/2

    def test_render(self, result):
        out = fig06_footprints.render(result)
        assert "Figure 6a" in out and "Jaccard" in out


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_metadata.run(MICRO, functions=FNS,
                                  region_sizes=(256, 1 * KB, 4 * KB),
                                  crrb_sizes=(16,))

    def test_all_cells_present(self, result):
        assert len(result.metadata_bytes) == 2 * 3

    def test_midsize_region_not_worst(self, result):
        for fn in result.functions:
            series = [result.metadata_bytes[(fn, 16, rs)]
                      for rs in result.region_sizes]
            assert series[1] <= max(series[0], series[2])

    def test_render(self, result):
        assert "Figure 8" in fig08_metadata.render(result)

    def test_render_shows_the_16_entry_crrb(self):
        """The table renders the 16-entry CRRB column of the grid."""
        result = fig08_metadata.Fig8Result(region_sizes=[1 * KB],
                                           functions=["F"])
        for crrb, size in ((8, 8 * KB), (16, 16 * KB), (32, 32 * KB)):
            result.metadata_bytes[("F", crrb, 1 * KB)] = size
        text = fig08_metadata.render(result)
        assert "CRRB = 16 entries" in text
        assert "16.0K" in text and "8.0K" not in text and "32.0K" not in text


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_storage.run(MICRO, functions=["Email-P", "ProdL-G"],
                                 budgets=(2 * KB, 16 * KB))

    def test_speedup_grows_with_budget(self, result):
        for fn, by_budget in result.speedups.items():
            assert by_budget[16 * KB] > by_budget[2 * KB]

    def test_geomean_present_for_all_budgets(self, result):
        assert set(result.geomean) == {2 * KB, 16 * KB}

    def test_render(self, result):
        assert "Figure 9" in fig09_storage.render(result)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_speedup.run(MICRO, functions=FNS)

    def test_ordering(self, result):
        for e in result.entries:
            assert 0 < e.jukebox_speedup < e.perfect_speedup

    def test_geomeans(self, result):
        assert 0 < result.jukebox_geomean < result.perfect_geomean

    def test_render(self, result):
        out = fig10_speedup.render(result)
        assert "Figure 10" in out and "GEOMEAN" in out


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_coverage.run(MICRO, functions=FNS)

    def test_fractions_bounded(self, result):
        for e in result.entries:
            assert 0 <= e.covered_fraction <= 1
            assert e.covered_fraction + e.uncovered_fraction == pytest.approx(1.0)

    def test_coverage_substantial(self, result):
        assert result.mean_coverage() > 0.5

    def test_render(self, result):
        assert "Figure 11" in fig11_coverage.render(result)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_bandwidth.run(MICRO, functions=FNS)

    def test_overhead_positive_but_bounded(self, result):
        for e in result.entries:
            assert 0 < e.overhead_fraction < 0.6

    def test_overhead_components(self, result):
        for e in result.entries:
            assert e.metadata_record_bytes > 0
            assert e.metadata_replay_bytes > 0

    def test_render(self, result):
        assert "Figure 12" in fig12_bandwidth.render(result)


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_pif.run(MICRO, functions=["ProdL-G"])

    def test_jukebox_beats_pif(self, result):
        jb = result.speedups["jukebox"]["ProdL-G"]
        pif = result.speedups["pif"]["ProdL-G"]
        ideal = result.speedups["pif_ideal"]["ProdL-G"]
        assert jb > ideal > pif

    def test_render(self, result):
        assert "Figure 13" in fig13_pif.render(result)


class TestTables:
    def test_table1_matches_machine(self):
        result = table1_config.run()
        rendered = table1_config.render(result)
        assert "1024KB" in rendered  # Skylake 1MB L2
        assert "CRRB: 16 entries" in rendered

    def test_table2_lists_twenty(self):
        result = table2_workloads.run()
        assert len(result.profiles) == 20
        assert "Table 2" in table2_workloads.render(result)

    def test_table3_shape(self):
        result = table3_mpki_reduction.run(MICRO, functions=["Auth-G"])
        sky = result.row("skylake")
        bdw = result.row("broadwell")
        # LLC instruction misses nearly eliminated on both platforms.
        assert sky.llc_inst_reduction_pct < -60
        assert bdw.llc_inst_reduction_pct < -60
        # The small Broadwell L2 keeps most of its misses.
        assert bdw.l2_inst_reduction_pct > sky.l2_inst_reduction_pct
        assert "Table 3" in table3_mpki_reduction.render(result)

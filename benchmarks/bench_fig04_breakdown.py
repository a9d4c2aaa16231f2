"""Benchmark: regenerate Figure 4 (mean CPI breakdown vs. reference)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig02_topdown, fig04_cpi_breakdown


def test_fig04_mean_breakdown(benchmark, fig2_result, report):
    result = run_once(benchmark, fig04_cpi_breakdown.run, fig2=fig2_result)
    report("fig04_cpi_breakdown", fig04_cpi_breakdown.render(result))
    # Paper: fetch latency is 56% of the extra stall cycles.
    assert_in_band("fig4.fetch_latency_share",
                   result.fetch_latency_share_of_extra)
    assert result.normalized_interleaved > 1.3

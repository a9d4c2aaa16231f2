"""Benchmark: regenerate Figure 3 (fetch latency vs. bandwidth split)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig02_topdown, fig03_frontend


def test_fig03_frontend_split(benchmark, fig2_result, report):
    result = run_once(benchmark, fig03_frontend.run, fig2=fig2_result)
    report("fig03_frontend", fig03_frontend.render(result))
    # Paper: fetch-latency stalls grow ~94% under interleaving while
    # fetch-bandwidth stalls grow only ~22%.
    assert result.mean_latency_growth > 2 * result.mean_bandwidth_growth
    assert_in_band("fig3.latency_growth", result.mean_latency_growth)

"""Benchmark: regenerate Figure 2 (Top-Down CPI stacks, all 20 functions)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig02_topdown


def test_fig02_topdown_stacks(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig02_topdown.run, bench_cfg)
    report("fig02_topdown", fig02_topdown.render(result))
    assert len(result.entries) == 20
    # Paper: interleaving costs 31-114% CPI (mean ~70%).
    assert_in_band("fig2.mean_cpi_increase", result.mean_cpi_increase)
    # Paper: front-end is ~51%/55% of cycles in reference/interleaved.
    assert_in_band("fig2.frontend_ref",
                   result.mean_frontend_fraction("reference"))
    assert_in_band("fig2.frontend_int",
                   result.mean_frontend_fraction("interleaved"))

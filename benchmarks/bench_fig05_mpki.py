"""Benchmark: regenerate Figure 5 (L2/L3 MPKI breakdowns)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig05_mpki


def test_fig05_mpki_breakdowns(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig05_mpki.run, bench_cfg)
    report("fig05_mpki", fig05_mpki.render(result))
    assert len(result.entries) == 20
    # Paper: interleaved L2 MPKI exceeds reference (72 vs. 54 on average).
    assert result.mean_l2_int_total > result.mean_l2_ref_total
    # Paper: reference LLC instruction MPKI ~0; interleaved >10 for many.
    assert_in_band("fig5.llc_ref_inst_mpki", result.mean("llc_ref_inst"))
    assert_in_band("fig5.llc_int_inst_mpki", result.mean("llc_int_inst"))
    # Paper: instruction misses exceed data misses.
    assert result.mean("l2_int_inst") > result.mean("l2_int_data")

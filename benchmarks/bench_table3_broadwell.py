"""Benchmark: regenerate Table 3 (MPKI reduction, Skylake vs. Broadwell)."""

from conftest import assert_in_band, run_once

from repro.experiments import table3_mpki_reduction

#: A balanced subset keeps the two-machine sweep affordable.
FUNCTIONS = ["Fib-P", "Email-P", "AES-N", "Pay-N",
             "Auth-G", "ProdL-G", "Rate-G", "User-G"]


def test_table3_mpki_reduction(benchmark, bench_cfg, report):
    result = run_once(benchmark, table3_mpki_reduction.run, bench_cfg,
                      functions=FUNCTIONS)
    report("table3_mpki_reduction", table3_mpki_reduction.render(result))
    sky = result.row("skylake")
    bdw = result.row("broadwell")
    # Paper: LLC instruction misses nearly eliminated on both platforms
    # (-86% / -91%).
    assert_in_band("table3.skylake_llc", sky.llc_inst_reduction_pct)
    assert_in_band("table3.broadwell_llc", bdw.llc_inst_reduction_pct)
    # Paper: L2 misses drop -74% on Skylake but only -15% on Broadwell
    # (conflict evictions in the small 256KB L2).
    assert_in_band("table3.skylake_l2", sky.l2_inst_reduction_pct)
    assert_in_band("table3.broadwell_l2", bdw.l2_inst_reduction_pct)
    # Paper: the Broadwell speedup (12%) trails Skylake (18.7%).
    assert bdw.jukebox_geomean_speedup < sky.jukebox_geomean_speedup

"""Benchmark: regenerate Figure 9 (speedup vs. metadata budget)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig09_storage
from repro.units import KB
from repro.workloads.suite import REPRESENTATIVES


def test_fig09_budget_sweep(benchmark, bench_cfg, report):
    functions = list(REPRESENTATIVES) + ["Auth-G", "Curr-N", "RecO-P"]
    result = run_once(benchmark, fig09_storage.run, bench_cfg,
                      functions=functions)
    report("fig09_storage", fig09_storage.render(result))
    # Paper: speedup saturates around 16KB -- little gain beyond it.
    assert_in_band("fig9.saturation_budget_kb",
                   result.saturation_budget(threshold=0.015) / KB)
    gain_8_to_16 = result.geomean[16 * KB] - result.geomean[8 * KB]
    gain_16_to_32 = result.geomean[32 * KB] - result.geomean[16 * KB]
    assert gain_8_to_16 > gain_16_to_32
    # Paper: large-working-set functions (Pay-N) are the most sensitive.
    pay_gain = result.speedups["Pay-N"][32 * KB] - result.speedups["Pay-N"][8 * KB]
    prod_gain = (result.speedups["ProdL-G"][32 * KB]
                 - result.speedups["ProdL-G"][8 * KB])
    assert pay_gain > prod_gain

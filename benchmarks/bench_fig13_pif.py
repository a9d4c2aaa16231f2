"""Benchmark: regenerate Figure 13 (PIF comparison)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig13_pif


def test_fig13_pif_comparison(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig13_pif.run, bench_cfg)
    report("fig13_pif", fig13_pif.render(result))
    pif = result.geomean("pif")
    ideal = result.geomean("pif_ideal")
    jukebox = result.geomean("jukebox")
    combo = result.geomean("jukebox_pif_ideal")
    # Paper ordering: PIF (+2.4%) < PIF-ideal (+6.7%) < Jukebox (+18.7%)
    # <= Jukebox + PIF-ideal.
    assert_in_band("fig13.pif", pif)
    assert pif < ideal < jukebox
    assert combo >= jukebox * 0.95

"""Benchmark: regenerate Figure 6 (footprints and Jaccard commonality)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig06_footprints
from repro.units import KB


def test_fig06_footprints_and_commonality(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig06_footprints.run, bench_cfg,
                      invocations=10)
    report("fig06_footprints", fig06_footprints.render(result))
    assert len(result.entries) == 20
    # Paper: footprints range ~300KB to >800KB.
    for e in result.entries:
        assert 250 * KB < e.footprint_bytes["mean"] < 900 * KB
    # Paper: mean commonality exceeds 90% for all but three functions.
    high = [e for e in result.entries if e.jaccard["mean"] > 0.9]
    assert len(high) >= 15
    assert_in_band("fig6.jaccard_mean", result.mean_jaccard)

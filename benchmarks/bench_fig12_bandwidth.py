"""Benchmark: regenerate Figure 12 (memory-bandwidth overhead)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig12_bandwidth


def test_fig12_bandwidth_overhead(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig12_bandwidth.run, bench_cfg)
    report("fig12_bandwidth", fig12_bandwidth.render(result))
    assert len(result.entries) == 20
    # Paper: +14% average overhead, +23% worst case.
    assert_in_band("fig12.overhead_mean", result.mean_overhead)
    assert_in_band("fig12.overhead_max", result.max_overhead)
    # Overhead decomposes into metadata + overprediction, both non-zero.
    assert 0.0 < result.mean_metadata_share < 1.0

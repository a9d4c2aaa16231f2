"""Benchmark: regenerate Figure 11 (miss coverage / overprediction)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig11_coverage
from repro.workloads.profiles import LANG_GO, LANG_NODEJS, LANG_PYTHON


def test_fig11_coverage(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig11_coverage.run, bench_cfg)
    report("fig11_coverage", fig11_coverage.render(result))
    assert len(result.entries) == 20
    # Paper: Go coverage 75-90%; Python/NodeJS 48-74% (metadata truncation).
    go = result.mean_coverage(LANG_GO)
    py = result.mean_coverage(LANG_PYTHON)
    node = result.mean_coverage(LANG_NODEJS)
    assert_in_band("fig11.go_coverage", go)
    assert go > py and go > node
    # Paper: overprediction averages ~10% with a 15.8% maximum.
    assert_in_band("fig11.overprediction_mean", result.mean_overprediction)
    assert result.max_overprediction < 0.35
    # The big Python/NodeJS functions exceed the 16KB budget.
    truncated = [e.abbrev for e in result.entries if e.metadata_truncated]
    assert any(abbrev.endswith(("-P", "-N")) for abbrev in truncated)

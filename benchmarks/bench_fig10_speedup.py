"""Benchmark: regenerate Figure 10 (the headline speedup result)."""

from conftest import assert_in_band, run_once

from repro.experiments import fig10_speedup


def test_fig10_jukebox_and_perfect_speedups(benchmark, bench_cfg, report):
    result = run_once(benchmark, fig10_speedup.run, bench_cfg)
    report("fig10_speedup", fig10_speedup.render(result))
    assert len(result.entries) == 20
    # Paper: Jukebox +18.7% geomean; perfect I-cache +31% mean.
    assert_in_band("fig10.jukebox_geomean", result.jukebox_geomean)
    assert_in_band("fig10.perfect_geomean", result.perfect_geomean)
    assert result.jukebox_geomean < result.perfect_geomean
    # Paper: per-function Jukebox gains track the perfect-I$ opportunity.
    assert result.correlation() > 0.7
    # Paper: every function benefits; AES (loop-heavy) benefits least
    # within each language.
    by_abbrev = {e.abbrev: e for e in result.entries}
    for e in result.entries:
        assert e.jukebox_speedup > 0.02
    for lang in ("P", "N", "G"):
        aes = by_abbrev[f"AES-{lang}"].jukebox_speedup
        auth = by_abbrev[f"Auth-{lang}"].jukebox_speedup
        assert aes < auth

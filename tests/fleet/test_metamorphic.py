"""Metamorphic battery: directional properties that must hold per seed.

* doubling the node count at fixed total load never worsens region p99
  (within one histogram-bin tolerance);
* Jukebox-on capacity is >= Jukebox-off on *every* seed -- in this model
  it is a deterministic consequence of scaling service times down while
  the arrival streams (and therefore admission/eviction decisions) stay
  fixed.
"""

import pytest

from repro.fleet.config import FleetConfig
from repro.fleet.region import simulate_region

SEEDS = (1, 7, 23, 101)

#: One log-spaced histogram bin is ~1.8%; 5% also absorbs the service-
#: draw reshuffle that re-seeding twice as many nodes implies.
P99_TOLERANCE = 1.05


@pytest.mark.parametrize("seed", SEEDS)
def test_doubling_nodes_never_worsens_p99(seed):
    base = FleetConfig(nodes=3, instances=240, functions=12,
                       duration_ms=10_000.0, mean_iat_ms=300.0, seed=seed)
    doubled = base.replace(nodes=6)
    p99_base = simulate_region(base)["region"]["p99_latency_ms"]
    p99_doubled = simulate_region(doubled)["region"]["p99_latency_ms"]
    assert p99_doubled <= p99_base * P99_TOLERANCE, (seed, p99_base,
                                                     p99_doubled)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
def test_jukebox_capacity_dominates_baseline(seed, arrival):
    cfg = FleetConfig(nodes=2, instances=80, functions=16,
                      duration_ms=10_000.0, mean_iat_ms=400.0,
                      arrival=arrival, seed=seed)
    base = simulate_region(cfg)["region"]
    jb = simulate_region(cfg.replace(jukebox=True))["region"]
    # Arrival streams are independent of service times, so the served
    # population is identical; only service durations shrink.
    assert jb["arrivals"] == base["arrivals"]
    assert jb["invocations"] == base["invocations"]
    assert jb["busy_ms"] < base["busy_ms"]
    assert jb["capacity_inv_s"] >= base["capacity_inv_s"]


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_jukebox_never_worsens_p99(seed):
    cfg = FleetConfig(nodes=2, instances=80, functions=16,
                      duration_ms=10_000.0, mean_iat_ms=400.0, seed=seed)
    base = simulate_region(cfg)["region"]
    jb = simulate_region(cfg.replace(jukebox=True))["region"]
    assert jb["p99_latency_ms"] <= base["p99_latency_ms"] * P99_TOLERANCE

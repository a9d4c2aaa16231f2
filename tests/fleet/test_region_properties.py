"""Seeded property tests: the fleet's conservation invariants.

Configurations are generated with stdlib ``random.Random`` from fixed
master seeds, so every run checks the same population and a failure
reproduces exactly.  The invariants:

* every arrival is exactly one of served or dropped
  (``arrivals == invocations + dropped``, per node and region-wide);
* a node's warm set never exceeds its memory capacity.

Eviction at the keep-alive boundary is pinned on the server itself
(``tests/server/test_keepalive.py``).
"""

import random

from repro.fleet.config import MEMORY_GB_PER_NODE, FleetConfig
from repro.fleet.region import simulate_region

#: A node's memory in bytes.
CAPACITY = MEMORY_GB_PER_NODE * 1024 * 1024 * 1024

#: Every instance holds more than its 24MB runtime overhead, so 3,000 of
#: them cannot all stay warm on one 64GB node: once it fills, cold
#: arrivals are dropped.
OVERCOMMITTED = FleetConfig(nodes=1, instances=3_000, functions=20,
                            duration_ms=2_000.0, mean_iat_ms=500.0, seed=5)


def _random_config(rng: random.Random) -> FleetConfig:
    return FleetConfig(
        nodes=rng.randrange(1, 5),
        functions=rng.randrange(3, 25),
        instances=rng.randrange(20, 150),
        duration_ms=rng.choice([5_000.0, 15_000.0]),
        mean_iat_ms=rng.choice([200.0, 1_000.0, 4_000.0]),
        arrival=rng.choice(["poisson", "bursty", "diurnal"]),
        jukebox=rng.random() < 0.5,
        seed=rng.randrange(1, 10_000),
    )


def test_every_arrival_served_or_dropped():
    rng = random.Random(1009)
    for _ in range(8):
        cfg = _random_config(rng)
        result = simulate_region(cfg)
        region = result["region"]
        assert region["arrivals"] == \
            region["invocations"] + region["dropped"], cfg
        for node in result["node_results"]:
            assert node["arrivals"] == \
                node["invocations"] + node["dropped"], (cfg, node["node"])
            # Served latencies account for every invocation, exactly.
            assert sum(c for _b, c in node["latency_pairs"]) \
                == node["invocations"]


def test_node_memory_never_exceeds_capacity():
    rng = random.Random(2003)
    saw_drop = False
    for cfg in [_random_config(rng) for _ in range(8)] + [OVERCOMMITTED]:
        result = simulate_region(cfg)
        for node in result["node_results"]:
            assert 0 <= node["peak_memory_bytes"] <= CAPACITY, cfg
        saw_drop = saw_drop or result["region"]["dropped"] > 0
    # The population must include a memory-constrained region, otherwise
    # the capacity bound is vacuous.
    assert saw_drop


def test_overcommitted_node_drops_but_conserves():
    region = simulate_region(OVERCOMMITTED)["region"]
    assert region["dropped"] > 0
    assert region["arrivals"] == region["invocations"] + region["dropped"]
    assert region["peak_memory_bytes"] <= CAPACITY


def test_cold_starts_bounded_by_admissions():
    rng = random.Random(4001)
    for _ in range(6):
        cfg = _random_config(rng)
        region = simulate_region(cfg)["region"]
        assert region["cold_starts"] <= region["invocations"]
        # Every instance's first served invocation is a cold start, and
        # re-warms only follow evictions.
        assert region["cold_starts"] <= \
            cfg.instances + region["evictions"], cfg

"""Differential battery: the fleet against its ground truths.

* a 1-node fleet must be byte-identical (canonical JSON) to a hand-built
  :class:`~repro.server.server.ServerSimulator` run on the same seed --
  region orchestration adds nothing on top of the node model;
* serial, sharded-parallel, and warm-cache-resumed region runs must be
  byte-identical on every seed -- sharding and caching only partition
  work, they never change results.
"""

import json

import pytest

from repro import engine
from repro.fleet.config import (
    COLD_START_PENALTY_MS,
    CORES_PER_NODE,
    MEMORY_GB_PER_NODE,
    SERVICE_TIME_MS,
    TTL_MINUTES,
    FleetConfig,
)
from repro.fleet.plan import node_seed_for, plan_region
from repro.fleet.region import simulate_region
from repro.fleet.result import LatencyHistogram
from repro.server.server import ServerConfig, ServerSimulator
from repro.workloads.arrival import make_arrival_process
from repro.workloads.suite import SUITE

SEEDS = (3, 17, 2022)


def canonical(value) -> str:
    return json.dumps(engine.canonicalize(value), sort_keys=True,
                      separators=(",", ":"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("jukebox", [False, True])
@pytest.mark.parametrize("arrival", ["poisson", "bursty", "diurnal"])
def test_one_node_fleet_matches_server_simulator(arrival, jukebox, seed):
    """Hand-build the node with server/workload APIs only and compare,
    for each arrival mix, with Jukebox's service scaling off and on."""
    cfg = FleetConfig(nodes=1, instances=60, functions=12,
                      duration_ms=15_000.0, mean_iat_ms=800.0,
                      arrival=arrival, jukebox=jukebox, seed=seed)
    plan = plan_region(cfg)

    sim = ServerSimulator(
        config=ServerConfig(cores=CORES_PER_NODE,
                            memory_gb=MEMORY_GB_PER_NODE,
                            service_time_ms=SERVICE_TIME_MS,
                            cold_start_ms=COLD_START_PENALTY_MS,
                            ttl_minutes=TTL_MINUTES),
        seed=node_seed_for(cfg, 0))
    for spec in plan[0]:
        sim.add_instance(
            SUITE[spec.function_id % len(SUITE)],
            make_arrival_process(cfg.arrival, cfg.mean_iat_ms,
                                 seed=spec.arrival_seed),
            instance_id=spec.instance_id,
            service_scale=spec.service_scale)
    stats = sim.run(cfg.duration_ms)
    hist = LatencyHistogram()
    hist.observe_many(stats.latencies_ms)
    expected = {
        "node": 0,
        "instances": len(plan[0]),
        "arrivals": stats.arrivals,
        "invocations": stats.invocations,
        "cold_starts": stats.cold_starts,
        "dropped": stats.dropped,
        "evictions": stats.evictions,
        "busy_ms": stats.busy_ms,
        "capacity_inv_s": (CORES_PER_NODE * stats.invocations
                           / (stats.busy_ms / 1000.0)),
        "peak_warm_instances": stats.peak_warm_instances,
        "peak_memory_bytes": stats.peak_memory_bytes,
        "latency_pairs": hist.to_pairs(),
    }

    [node_result] = simulate_region(cfg)["node_results"]
    assert canonical(node_result) == canonical(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_sharded_and_resumed_are_byte_identical(seed, tmp_path):
    cfg = FleetConfig(nodes=4, instances=120, functions=10,
                      duration_ms=10_000.0, mean_iat_ms=600.0, seed=seed)

    serial = canonical(simulate_region(cfg, shards=1))

    with engine.configure(jobs=4):
        parallel = canonical(simulate_region(cfg, shards=4))
    assert parallel == serial

    cache_dir = tmp_path / f"cache-{seed}"
    with engine.configure(cache_dir=cache_dir) as ctx:
        cold = canonical(simulate_region(cfg, shards=4))
        assert ctx.stats.misses == 4
    assert cold == serial
    with engine.configure(cache_dir=cache_dir) as ctx:
        resumed = canonical(simulate_region(cfg, shards=4))
        assert ctx.stats.hits == 4 and ctx.stats.misses == 0
    assert resumed == serial


def test_shard_count_never_changes_results():
    cfg = FleetConfig(nodes=6, instances=90, functions=8,
                      duration_ms=8_000.0, mean_iat_ms=700.0, seed=11)
    baseline = canonical(simulate_region(cfg, shards=1))
    for shards in (2, 3, 6):
        assert canonical(simulate_region(cfg, shards=shards)) == baseline


def test_server_run_deterministic_at_default_service_scale():
    """Two runs on one seed draw the same service times; with memory to
    spare every arrival is served."""
    def run():
        sim = ServerSimulator(ServerConfig(cores=4), seed=9)
        for i, profile in enumerate(SUITE[:8]):
            sim.add_instance(profile,
                             make_arrival_process("poisson", 500.0, seed=i))
        return sim.run(5_000.0)

    a, b = run(), run()
    assert a.dropped == 0
    assert a.invocations == b.invocations
    assert a.latencies_ms == b.latencies_ms
    assert a.arrivals == a.invocations

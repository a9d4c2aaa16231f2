"""One fleet node = one memory-enforcing :class:`ServerSimulator`.

The fleet deliberately reuses the single-server simulator unchanged as
its node model: the differential battery then proves that region
orchestration (planning, sharding, aggregation) adds nothing on top of
what one server would compute -- a 1-node fleet is byte-identical to a
hand-built ``ServerSimulator`` run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fleet.config import (
    COLD_START_PENALTY_MS,
    CORES_PER_NODE,
    MEMORY_GB_PER_NODE,
    SERVICE_TIME_MS,
    TTL_MINUTES,
    FleetConfig,
)
from repro.fleet.plan import InstanceSpec, node_seed_for
from repro.fleet.popularity import function_profile
from repro.fleet.result import LatencyHistogram
from repro.server.server import ServerConfig, ServerSimulator
from repro.workloads.arrival import make_arrival_process


def build_node(config: FleetConfig, node: int,
               specs: List[InstanceSpec]) -> ServerSimulator:
    """Construct the node's simulator with all planned instances added."""
    server_cfg = ServerConfig(
        cores=CORES_PER_NODE,
        memory_gb=MEMORY_GB_PER_NODE,
        service_time_ms=SERVICE_TIME_MS,
        cold_start_ms=COLD_START_PENALTY_MS,
        ttl_minutes=TTL_MINUTES,
    )
    sim = ServerSimulator(config=server_cfg,
                          seed=node_seed_for(config, node))
    for spec in specs:
        sim.add_instance(
            function_profile(spec.function_id),
            make_arrival_process(config.arrival, config.mean_iat_ms,
                                 seed=spec.arrival_seed),
            instance_id=spec.instance_id,
            service_scale=spec.service_scale,
        )
    return sim


def simulate_node(config: FleetConfig, node: int,
                  specs: List[InstanceSpec]) -> Dict:
    """Simulate one node; return a canonical, JSON-safe result dict."""
    sim = build_node(config, node, specs)
    stats = sim.run(config.duration_ms)
    hist = LatencyHistogram()
    hist.observe_many(stats.latencies_ms)
    busy_s = stats.busy_ms / 1000.0
    # Throughput capacity: invocations the node's cores sustain per
    # core-busy second, scaled by core count -- the fleet analogue of the
    # paper's invocations/sec capacity metric.
    capacity = (CORES_PER_NODE * stats.invocations / busy_s
                if busy_s > 0 else 0.0)
    return {
        "node": node,
        "instances": len(specs),
        "arrivals": stats.arrivals,
        "invocations": stats.invocations,
        "cold_starts": stats.cold_starts,
        "dropped": stats.dropped,
        "evictions": stats.evictions,
        "busy_ms": stats.busy_ms,
        "capacity_inv_s": capacity,
        "peak_warm_instances": stats.peak_warm_instances,
        "peak_memory_bytes": stats.peak_memory_bytes,
        "latency_pairs": hist.to_pairs(),
    }

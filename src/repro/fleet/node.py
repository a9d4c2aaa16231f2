"""One fleet node = one memory-enforcing :class:`ServerSimulator`.

The fleet deliberately reuses the single-server simulator unchanged as
its node model: the differential battery then proves that region
orchestration (planning, sharding, aggregation) adds nothing on top of
what one server would compute -- a 1-node fleet is byte-identical to a
hand-built ``ServerSimulator`` run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coldstart.model import ColdStartSpec
from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.fleet.plan import InstanceSpec, node_seed_for
from repro.fleet.popularity import function_profile
from repro.fleet.result import LatencyHistogram
from repro.server.keepalive import FixedTTL, HistogramTTL, KeepAlivePolicy
from repro.server.server import ServerConfig, ServerSimulator
from repro.workloads.arrival import make_arrival_process


def make_keepalive(config: FleetConfig) -> KeepAlivePolicy:
    """Instantiate the configured keep-alive policy for one node."""
    if config.keepalive == "fixed":
        return FixedTTL(ttl_minutes=config.ttl_minutes)
    if config.keepalive == "histogram":
        return HistogramTTL(default_ttl_minutes=config.ttl_minutes)
    raise ConfigurationError(
        f"unknown keep-alive policy {config.keepalive!r}")


def make_coldstart_spec(config: FleetConfig) -> ColdStartSpec:
    """The node-level cold-start model spec the fleet config selects."""
    return ColdStartSpec(
        kind=config.coldstart,
        constant_ms=config.cold_start_penalty_ms,
        page_replay=config.page_replay,
        init_trim=config.init_trim,
    )


def build_node(config: FleetConfig, node: int,
               specs: List[InstanceSpec]) -> ServerSimulator:
    """Construct the node's simulator with all planned instances added."""
    server_cfg = ServerConfig(
        cores=config.cores_per_node,
        memory_gb=config.memory_gb_per_node,
        service_time_ms=config.service_time_ms,
        coldstart=make_coldstart_spec(config),
    )
    sim = ServerSimulator(config=server_cfg,
                          keepalive=make_keepalive(config),
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
    capacity = (config.cores_per_node * stats.invocations / busy_s
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

"""Region-scale fleet simulation (many servers behind a load balancer).

The fleet layer scales the single-server model of :mod:`repro.server` out
to a region: many multi-core nodes, round-robin placement, a Zipf
per-function popularity model, a fixed per-node keep-alive and Jukebox
on/off -- sharded across :mod:`repro.engine` so region sweeps are
parallel, cached, and crash-resumable.  Entry point:
:func:`repro.fleet.region.simulate_region`.
"""

from repro.fleet.config import FleetConfig, shard_bounds, shard_node_ids
from repro.fleet.node import build_node, simulate_node
from repro.fleet.plan import InstanceSpec, plan_region
from repro.fleet.popularity import (
    JUKEBOX_UPLIFT,
    instances_per_function,
    service_scale,
    zipf_weights,
)
from repro.fleet.provider import PROVIDER
from repro.fleet.region import shard_jobs, simulate_region
from repro.fleet.result import LatencyHistogram, aggregate_nodes

__all__ = [
    "FleetConfig",
    "InstanceSpec",
    "JUKEBOX_UPLIFT",
    "LatencyHistogram",
    "PROVIDER",
    "aggregate_nodes",
    "build_node",
    "instances_per_function",
    "plan_region",
    "service_scale",
    "shard_bounds",
    "shard_jobs",
    "shard_node_ids",
    "simulate_node",
    "simulate_region",
    "zipf_weights",
]

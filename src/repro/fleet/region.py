"""Region-scale orchestration: shard jobs, sweep, aggregate.

:func:`simulate_region` is the fleet's public entry point.  It fans the
region out as ``shards`` content-addressed engine jobs (each a contiguous
node range), runs them through the ambient
:class:`~repro.engine.sweep.EngineContext` -- so shard results are
cached, parallelizable, and SIGKILL-resumable exactly like every other
simulation cell -- and folds the per-node results into one canonical
region dict.  The output is byte-identical whatever the shard count,
executor, or cache state: ``shards`` only partitions work, it never
appears in the result.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.engine.job import Job
from repro.engine.sweep import sweep
from repro.fleet.config import FleetConfig, shard_bounds
from repro.fleet.provider import PROVIDER
from repro.fleet.result import aggregate_nodes


def shard_jobs(config: FleetConfig, shards: int = 1) -> List[Job]:
    """The region's engine jobs, one per contiguous node range."""
    shard_bounds(config.nodes, 0, shards)  # validates shards vs nodes
    return [Job.make(config, None, None, "fleet_shard", provider=PROVIDER,
                     shard=shard, shards=shards)
            for shard in range(shards)]


def simulate_region(config: FleetConfig, shards: int = 1) -> Dict:
    """Simulate one region; returns a canonical, JSON-safe result dict.

    The dict has three parts: ``config`` (the full fleet configuration,
    echoed so a result file is self-describing), ``node_results`` (one
    canonical dict per node, ascending by node id), and ``region`` (the
    order-free aggregate from :func:`repro.fleet.result.aggregate_nodes`).
    """
    shard_results = sweep(shard_jobs(config, shards))
    node_results: List[Dict] = [node for nodes in shard_results
                                for node in nodes]
    node_results.sort(key=lambda n: n["node"])
    return {
        "config": dataclasses.asdict(config),
        "node_results": node_results,
        "region": aggregate_nodes(node_results),
    }

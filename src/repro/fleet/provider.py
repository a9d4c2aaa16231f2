"""The fleet's engine config: one shard of a region per Job.

A shard job carries ``profile=FleetConfig`` (the whole region
description), ``machine=None``/``cfg=None`` (node hardware and scale live
inside the fleet config), and ``opts={"shard": s, "shards": n}``.  The
builder re-derives the full region plan locally -- it is a pure function
of the config -- and simulates only its own contiguous node range, so
shard results concatenate into exactly the serial region whatever the
shard count or executor.

This module is the ``provider`` named by fleet jobs.  Like every job,
a shard's key folds in :func:`repro.engine.job.source_digest` of the
whole ``repro`` package, so editing any fleet source transparently
invalidates memoized shard results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.common import register_config
from repro.fleet.config import FleetConfig, shard_node_ids
from repro.fleet.node import simulate_node
from repro.fleet.plan import plan_region

#: Module path fleet jobs pass as ``Job.make(..., provider=...)``.
PROVIDER = "repro.fleet.provider"


@register_config("fleet_shard")
def _build_fleet_shard(profile: FleetConfig, machine: Optional[Any],
                       cfg: Optional[Any], shard: int = 0,
                       shards: int = 1) -> List[Dict]:
    """Simulate one shard's nodes; returns their canonical result dicts."""
    if not isinstance(profile, FleetConfig):
        raise ConfigurationError(
            f"fleet_shard expects a FleetConfig profile, got "
            f"{type(profile).__name__}")
    plan = plan_region(profile)
    return [simulate_node(profile, node, plan[node])
            for node in shard_node_ids(profile.nodes, shard, shards)]

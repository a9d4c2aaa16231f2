"""Deterministic region planning: instances -> nodes.

:func:`plan_region` expands a :class:`~repro.fleet.config.FleetConfig`
into per-node instance lists.  The expansion is a pure function of the
config -- Zipf allotment, round-robin placement and per-instance seeds
all derive from it -- so every shard worker recomputes exactly the same
plan and simulates only its own node range.  Planning is cheap arithmetic
(O(instances)); simulation dominates by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.fleet.config import ZIPF_ALPHA, FleetConfig
from repro.fleet.popularity import (
    function_profile,
    region_functions,
    service_scale,
)

#: Seed-stream separation constants: distinct odd multipliers keep the
#: per-instance arrival streams and the per-node service streams
#: statistically independent for any fleet seed.
_ARRIVAL_STREAM = 1_000_033
_NODE_STREAM = 1_000_003


@dataclass(frozen=True)
class InstanceSpec:
    """One planned function instance (picklable, canonicalizable)."""

    global_id: int
    function_id: int
    profile_abbrev: str
    service_scale: float
    arrival_seed: int
    node: int

    @property
    def instance_id(self) -> str:
        """Stable instance identifier, independent of node or shard."""
        return f"f{self.function_id:06d}/i{self.global_id:09d}"


def arrival_seed_for(config: FleetConfig, global_id: int) -> int:
    return config.seed * _ARRIVAL_STREAM + global_id


def node_seed_for(config: FleetConfig, node: int) -> int:
    return config.seed * _NODE_STREAM + node


def plan_region(config: FleetConfig) -> Dict[int, List[InstanceSpec]]:
    """Assign every instance to a node; returns node -> specs.

    Instances are placed round-robin in deterministic global order
    (popularity-rank major, replica minor): instance ``global_id`` lands
    on node ``global_id % nodes``.  Every node key in the result is
    present even when empty, so shard workers can iterate their node
    range without key checks.
    """
    plan: Dict[int, List[InstanceSpec]] = {n: [] for n in range(config.nodes)}
    global_id = 0
    for function_id, count in region_functions(config.functions,
                                               config.instances,
                                               ZIPF_ALPHA):
        if count == 0:
            continue
        profile = function_profile(function_id)
        scale = service_scale(function_id, config.jukebox)
        for _replica in range(count):
            node = global_id % config.nodes
            plan[node].append(InstanceSpec(
                global_id=global_id,
                function_id=function_id,
                profile_abbrev=profile.abbrev,
                service_scale=scale,
                arrival_seed=arrival_seed_for(config, global_id),
                node=node,
            ))
            global_id += 1
    return plan

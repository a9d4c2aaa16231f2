"""Deterministic region planning: instances -> nodes.

:func:`plan_region` expands a :class:`~repro.fleet.config.FleetConfig`
into per-node instance lists.  The expansion is a pure function of the
config -- Zipf allotment, placement policy and per-instance seeds all
derive from it -- so every shard worker recomputes exactly the same plan
and simulates only its own node range.  Planning is cheap arithmetic
(O(instances)); simulation dominates by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.fleet.balancer import PlacementState, make_balancer
from repro.fleet.config import FleetConfig
from repro.fleet.popularity import (
    function_profile,
    region_functions,
    service_scale,
)

#: Seed-stream separation constants: distinct odd multipliers keep the
#: per-instance arrival streams, the balancer stream, and the per-node
#: service streams statistically independent for any fleet seed.
_ARRIVAL_STREAM = 1_000_033
_BALANCER_STREAM = 9_176_467
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


def balancer_seed_for(config: FleetConfig) -> int:
    return config.seed * _BALANCER_STREAM + 1


def node_seed_for(config: FleetConfig, node: int) -> int:
    return config.seed * _NODE_STREAM + node


def plan_region(config: FleetConfig) -> Dict[int, List[InstanceSpec]]:
    """Assign every instance to a node; returns node -> specs.

    Instances are placed in deterministic global order (popularity-rank
    major, replica minor), which is also the order stateful balancers
    (round-robin, least-loaded) observe.  Every node key in the result
    is present even when empty, so shard workers can iterate their node
    range without key checks.
    """
    balancer = make_balancer(config.balancer,
                             seed=balancer_seed_for(config))
    state = PlacementState(nodes=config.nodes)
    plan: Dict[int, List[InstanceSpec]] = {n: [] for n in range(config.nodes)}
    global_id = 0
    for function_id, count in region_functions(config.functions,
                                               config.instances,
                                               config.zipf_alpha):
        if count == 0:
            continue
        profile = function_profile(function_id)
        scale = service_scale(function_id, config.jukebox)
        expected_load = (config.service_time_ms * scale
                         / config.mean_iat_ms) / config.cores_per_node
        for _replica in range(count):
            node = balancer.place(function_id, expected_load, state)
            if not 0 <= node < config.nodes:
                raise ConfigurationError(
                    f"balancer {config.balancer!r} placed instance "
                    f"{global_id} on invalid node {node}")
            state.record(function_id, node, expected_load)
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


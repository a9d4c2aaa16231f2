"""Region-scale fleet configuration.

A :class:`FleetConfig` is the *complete* description of one simulated
region: everything a shard worker needs to reconstruct its slice of the
fleet is derivable from this one frozen dataclass (with the node policy
constants below) plus a node range, so a
region run shards across the sweep engine without shipping any plan data
through :class:`~repro.engine.job.Job` options.  Determinism contract:
the region's workload (function popularity, instance placement, arrival
streams, per-node service RNG) is a pure function of the config -- two
runs of the same config, whatever the shard count or executor, produce
byte-identical canonical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as _dc_replace
from typing import Any, List, Tuple

from repro.errors import ConfigurationError
from repro.workloads.arrival import ARRIVAL_KINDS

#: Cores of every node.
CORES_PER_NODE = 10
#: Memory of every node; cold arrivals that no longer fit are dropped.
MEMORY_GB_PER_NODE = 64
#: Mean service time of an *average* function instance; per-function
#: heterogeneity multiplies this by the profile's instruction-count ratio
#: against the suite mean.
SERVICE_TIME_MS = 1.0
#: Extra latency charged to a cold-started invocation.
COLD_START_PENALTY_MS = 120.0
#: Zipf skew of per-function popularity (instance allotment).
ZIPF_ALPHA = 1.1
#: Fixed keep-alive: an instance idle longer than this is evicted.
TTL_MINUTES = 10.0

#: The fixed settings as :func:`repro.fleet.region.simulate_region` echoes
#: them next to the fields, with these keys and JSON types: perfbench's
#: committed fleet-region digests hash the whole result, so a key can go
#: only with a benchmark change that records the digests again.
FIXED_SETTINGS = {
    "cores_per_node": CORES_PER_NODE,
    "memory_gb_per_node": MEMORY_GB_PER_NODE,
    "service_time_ms": SERVICE_TIME_MS,
    "cold_start_penalty_ms": COLD_START_PENALTY_MS,
    "coldstart": "constant",
    "page_replay": True,
    "init_trim": False,
    "zipf_alpha": ZIPF_ALPHA,
    "balancer": "round-robin",
    "keepalive": "fixed",
    "ttl_minutes": TTL_MINUTES,
}


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one simulated region.

    Scale knobs (``nodes``/``functions``/``instances``/``duration_ms``)
    size the region, ``arrival`` and ``mean_iat_ms`` shape its traffic,
    and ``jukebox`` turns the paper's optimization on per node, scaling
    every function's service time down by its language's capacity
    uplift.  Node hardware and policy are the module constants above.
    """

    nodes: int = 16
    #: Distinct functions in the region (mapped onto the Table 2 suite
    #: round-robin for footprints and language mix).
    functions: int = 40
    #: Total warm function instances region-wide, allotted to functions
    #: by the Zipf popularity model.
    instances: int = 800
    duration_ms: float = 60_000.0
    #: Per-instance mean inter-arrival time.
    mean_iat_ms: float = 2_000.0
    #: Arrival mix: poisson | bursty | diurnal (fixed/lognormal also
    #: accepted for experiments).
    arrival: str = "poisson"
    #: Per-node Jukebox on/off (the with/without axis of the capacity
    #: sweep).
    jukebox: bool = False
    seed: int = 1

    def __post_init__(self) -> None:
        for name, value in (("nodes", self.nodes),
                            ("functions", self.functions),
                            ("instances", self.instances)):
            if value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}")
        for name, value in (("duration_ms", self.duration_ms),
                            ("mean_iat_ms", self.mean_iat_ms)):
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a finite positive number, got {value}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival mix {self.arrival!r}; expected one of "
                f"{', '.join(ARRIVAL_KINDS)}")

    @property
    def abbrev(self) -> str:
        """Short label used by :meth:`repro.engine.job.Job.describe`."""
        jb = "jb" if self.jukebox else "base"
        return (f"fleet-{self.nodes}n-{self.instances}i-"
                f"{self.arrival}-round-robin-{jb}")

    def replace(self, **kwargs: Any) -> "FleetConfig":
        """A copy with ``kwargs`` overridden, re-validated."""
        return _dc_replace(self, **kwargs)


def shard_bounds(nodes: int, shard: int, shards: int) -> Tuple[int, int]:
    """Half-open node range ``[lo, hi)`` owned by ``shard`` of ``shards``.

    Nodes are split into contiguous, near-equal ranges (the first
    ``nodes % shards`` shards take one extra node), so every node belongs
    to exactly one shard whatever the shard count.
    """
    if shards <= 0:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    if not 0 <= shard < shards:
        raise ConfigurationError(
            f"shard index {shard} out of range for {shards} shards")
    if shards > nodes:
        raise ConfigurationError(
            f"cannot split {nodes} nodes into {shards} shards; "
            f"shards must be <= nodes")
    base, extra = divmod(nodes, shards)
    lo = shard * base + min(shard, extra)
    hi = lo + base + (1 if shard < extra else 0)
    return lo, hi


def shard_node_ids(nodes: int, shard: int, shards: int) -> List[int]:
    lo, hi = shard_bounds(nodes, shard, shards)
    return list(range(lo, hi))

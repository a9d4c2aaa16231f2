"""Event-driven server-level model of interleaved warm instances.

This is the substrate behind Sec. 2.2's occupancy arithmetic: hundreds to
thousands of warm instances on one server, invocations arriving per
instance at second-to-minute IATs, executions interleaving on a fixed pool
of cores.  The model is invocation-granular (it does not run the core
timing model for every co-tenant -- that is what the stressor abstraction
is for); it measures:

* interleaving degree between consecutive invocations of each instance;
* warm / cold(start) invocation mix under a fixed keep-alive TTL;
* per-core time occupancy and server memory pressure;
* aggregate Jukebox metadata cost (the "32MB for a thousand functions"
  headline of the abstract).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.server.instance import WarmInstance
from repro.units import KB, MB
from repro.workloads.arrival import ArrivalProcess, ExponentialBlocks
from repro.workloads.profiles import FunctionProfile


#: Per-instance Jukebox metadata: two 16 KB buffers (Sec. 3.4.1).
JUKEBOX_METADATA_BYTES_PER_INSTANCE = 32 * KB

#: Service-time draws the simulator takes from numpy at a time; a
#: full-scale fleet node serves about 7,700 invocations per run.
SERVICE_BLOCK = 1024


@dataclass
class ServerConfig:
    """Server-level parameters (defaults match the xl170 node, Sec. 4.1)."""

    cores: int = 10
    memory_gb: int = 64
    #: Mean service time per invocation in milliseconds.
    service_time_ms: float = 1.0
    #: Latency charged to every cold-started invocation
    #: (container/runtime bring-up).
    cold_start_ms: float = 0.0
    #: Keep-alive: an instance idle longer than this is evicted
    #: (providers keep idle instances warm 5-60 minutes, Sec. 2.1).
    ttl_minutes: float = 10.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError(
                f"cores must be positive, got {self.cores}")
        if self.memory_gb <= 0:
            raise ConfigurationError(
                f"memory_gb must be positive, got {self.memory_gb}")
        for name, value in (("service_time_ms", self.service_time_ms),
                            ("ttl_minutes", self.ttl_minutes)):
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a finite positive number, got {value}")
        if not math.isfinite(self.cold_start_ms) or self.cold_start_ms < 0:
            raise ConfigurationError(
                f"cold_start_ms must be finite and >= 0, got "
                f"{self.cold_start_ms}")

    @property
    def memory_bytes(self) -> int:
        return self.memory_gb * 1024 * MB


@dataclass
class ServerStats:
    """Aggregate results of one server simulation."""

    simulated_ms: float = 0.0
    #: Arrival events inside the simulated window (served + dropped).
    arrivals: int = 0
    invocations: int = 0
    cold_starts: int = 0
    #: Cold arrivals rejected because they no longer fit in memory.
    dropped: int = 0
    evictions: int = 0
    #: Interleaving degree of every re-invocation: the other invocations
    #: since the same instance's previous one (Sec. 2.2).
    interleave_degrees: List[int] = field(default_factory=list)
    iats_ms: List[float] = field(default_factory=list)
    #: Per-served-invocation end-to-end latency: queueing wait + service
    #: (+ cold-start penalty when the invocation cold-started).
    latencies_ms: List[float] = field(default_factory=list)
    #: Total core-busy time (sum of all service durations).
    busy_ms: float = 0.0
    peak_warm_instances: int = 0
    peak_memory_bytes: int = 0
    jukebox_metadata_bytes: int = 0

    @property
    def warm_fraction(self) -> float:
        if self.invocations == 0:
            return 0.0
        return 1.0 - self.cold_starts / self.invocations

    def mean_interleaving(self) -> float:
        if not self.interleave_degrees:
            return 0.0
        return float(np.mean(self.interleave_degrees))

    def interleaving_percentile(self, q: float) -> float:
        if not self.interleave_degrees:
            return 0.0
        return float(np.percentile(self.interleave_degrees, q))


class ServerSimulator:
    """Discrete-event simulation of invocation traffic on one server."""

    def __init__(self, config: Optional[ServerConfig] = None,
                 seed: int = 0) -> None:
        self.config = config if config is not None else ServerConfig()
        self._rng = np.random.default_rng(seed)
        self._service_units = ExponentialBlocks(self._rng, SERVICE_BLOCK)
        self._instances: Dict[str, WarmInstance] = {}
        self._arrivals: Dict[str, ArrivalProcess] = {}
        self._counter = itertools.count()
        self._ran = False
        self.stats = ServerStats()

    # ------------------------------------------------------------------

    def add_instance(self, profile: FunctionProfile,
                     arrivals: ArrivalProcess,
                     instance_id: Optional[str] = None,
                     service_scale: float = 1.0) -> WarmInstance:
        """Register one function instance with its arrival process."""
        if instance_id is None:
            instance_id = f"{profile.abbrev}#{len(self._instances)}"
        if instance_id in self._instances:
            raise ConfigurationError(f"duplicate instance id {instance_id!r}")
        if not math.isfinite(service_scale) or service_scale <= 0:
            raise ConfigurationError(
                f"service_scale must be a finite positive number, got "
                f"{service_scale}")
        inst = WarmInstance(instance_id=instance_id, profile=profile,
                            service_scale=service_scale)
        inst.allocate_jukebox_metadata(
            JUKEBOX_METADATA_BYTES_PER_INSTANCE // 2)
        self._instances[instance_id] = inst
        self._arrivals[instance_id] = arrivals
        return inst

    def populate(self, profiles: List[FunctionProfile],
                 instances: int,
                 arrival_factory) -> None:
        """Add ``instances`` instances round-robin over ``profiles``.

        ``arrival_factory(index, profile) -> ArrivalProcess``.
        """
        for i in range(instances):
            profile = profiles[i % len(profiles)]
            self.add_instance(profile, arrival_factory(i, profile))

    # ------------------------------------------------------------------

    def run(self, duration_ms: float) -> ServerStats:
        """Simulate invocation traffic for ``duration_ms``.

        The simulator maintains the *warm set*: an instance joins it at
        its first admitted arrival (a cold start), evictions are reaped
        from a TTL expiry heap as simulated time advances, eviction frees
        the instance's memory, and a cold arrival that no longer fits in
        ``memory_gb`` is *dropped* (counted, not served).  Every arrival
        is exactly one of served or dropped -- the conservation invariant
        the fleet property battery checks.

        Service times come from the simulator's blocks of standard
        exponential draws, so no numpy call runs per arrival.  A warm
        instance has one TTL-heap entry, pushed when it is admitted.

        A simulator runs once: its instances, arrival processes and
        stats would carry into a second run, so that raises
        :class:`ConfigurationError`.
        """
        if self._ran:
            raise ConfigurationError(
                "this ServerSimulator has already run; build a new one "
                "for another run")
        if duration_ms <= 0:
            raise ConfigurationError(f"duration must be positive: {duration_ms}")
        self._ran = True
        cfg = self.config
        stats = self.stats
        instances = self._instances
        counter = self._counter
        draw_unit = self._service_units.draw
        # Per instance: its next-IAT source, mean service time and memory.
        traits = {iid: (self._arrivals[iid].next_iat,
                        cfg.service_time_ms * inst.service_scale,
                        inst.memory_bytes)
                  for iid, inst in instances.items()}
        # Event heap of (time, tiebreak, instance_id).
        heap: List[Tuple[float, int, str]] = []
        for iid, (next_iat, _mean, _mem) in traits.items():
            heapq.heappush(heap, (next_iat(), next(counter), iid))

        capacity = cfg.memory_bytes
        ttl_ms = cfg.ttl_minutes * 60_000.0
        warm: Set[str] = set()
        warm_mem = 0
        peak_warm = 0
        peak_mem = 0
        # One entry per warm instance.  An entry may be older than the
        # instance's last invocation; popping it then pushes the entry
        # again at the instance's current expiry.
        expiry_heap: List[Tuple[float, int, str]] = []

        def reap_expired(now: float) -> None:
            """Evict warm instances whose idle time exceeded their TTL."""
            nonlocal warm_mem
            while expiry_heap and expiry_heap[0][0] <= now:
                expiry, _tb, iid2 = heapq.heappop(expiry_heap)
                last = instances[iid2].last_invocation_ms
                due = last + ttl_ms
                if due > expiry:
                    # Invoked since this entry was pushed.
                    heapq.heappush(expiry_heap, (due, next(counter), iid2))
                elif now - last > ttl_ms:
                    warm.discard(iid2)
                    warm_mem -= traits[iid2][2]
                    stats.evictions += 1
                else:
                    # Idle exactly the TTL (an arrival at the expiry
                    # instant) is still warm: look again just after
                    # ``now``, so reaping always progresses.
                    heapq.heappush(expiry_heap, (math.nextafter(now, math.inf),
                                                 next(counter), iid2))

        core_busy_until = [0.0] * cfg.cores
        global_seq = 0
        while heap:
            now, _tb, iid = heapq.heappop(heap)
            if now > duration_ms:
                break
            stats.arrivals += 1
            if expiry_heap and expiry_heap[0][0] <= now:
                reap_expired(now)
            next_iat, mean_service, memory = traits[iid]
            cold = iid not in warm
            if cold:
                # Cold arrival: admit if it fits, else drop.
                if warm_mem + memory > capacity:
                    stats.dropped += 1
                    nxt = now + next_iat()
                    if nxt <= duration_ms:
                        heapq.heappush(heap, (nxt, next(counter), iid))
                    continue
                warm.add(iid)
                warm_mem += memory
                # Only an admission grows the warm set or its memory.
                peak_warm = max(peak_warm, len(warm))
                peak_mem = max(peak_mem, warm_mem)
                heapq.heappush(expiry_heap, (now + ttl_ms, next(counter), iid))
            inst = instances[iid]
            if inst.last_invocation_ms is not None:
                stats.iats_ms.append(now - inst.last_invocation_ms)

            # Least-loaded core placement; the first of tied cores.
            core = core_busy_until.index(min(core_busy_until))
            service = mean_service * draw_unit()
            penalty = cfg.cold_start_ms if cold else 0.0
            start = max(now, core_busy_until[core])
            completion = start + service + penalty
            core_busy_until[core] = completion
            stats.busy_ms += service + penalty
            stats.latencies_ms.append(completion - now)

            if inst.last_global_seq is not None:
                # Other invocations since this instance's previous one.
                stats.interleave_degrees.append(
                    max(0, global_seq - inst.last_global_seq - 1))
            inst.record_invocation(now, global_seq, cold=cold)
            global_seq += 1
            stats.invocations += 1
            if cold:
                stats.cold_starts += 1

            nxt = now + next_iat()
            if nxt <= duration_ms:
                heapq.heappush(heap, (nxt, next(counter), iid))

        stats.simulated_ms = duration_ms
        stats.peak_warm_instances = peak_warm
        stats.peak_memory_bytes = peak_mem
        stats.jukebox_metadata_bytes = sum(
            inst.jukebox_metadata_bytes for inst in instances.values())
        return stats

    # ------------------------------------------------------------------

    @property
    def instances(self) -> Dict[str, WarmInstance]:
        return dict(self._instances)

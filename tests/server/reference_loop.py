"""The server event loop with one numpy call per arrival, the tests'
oracle.

:class:`ReferenceServerSimulator` is :class:`ServerSimulator` with
``run`` kept verbatim as it was before the loop dropped its per-arrival
numpy calls: a scalar ``Generator.exponential`` draw per service time,
``np.argmin`` for the core pick, one TTL-heap push per invocation made
unique through ``expiry_at``, and the peaks updated after every
invocation.  ``tests/server/test_loop_differential.py`` requires the
program's loop to match it exactly.  Arrival processes are shared, not
copied: ``tests/workloads/test_arrival.py`` pins their block draws
against scalar draws.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.server.server import ServerSimulator, ServerStats


class ReferenceServerSimulator(ServerSimulator):
    """A :class:`ServerSimulator` whose ``run`` is the scalar loop."""

    def run(self, duration_ms: float) -> ServerStats:
        """Simulate invocation traffic for ``duration_ms``.

        The simulator maintains the *warm set*: an instance joins it at
        its first admitted arrival (a cold start), evictions are reaped
        from a TTL expiry heap as simulated time advances, eviction frees
        the instance's memory, and a cold arrival that no longer fits in
        ``memory_gb`` is *dropped* (counted, not served).  Every arrival
        is exactly one of served or dropped -- the conservation invariant
        the fleet property battery checks.
        """
        if duration_ms <= 0:
            raise ConfigurationError(f"duration must be positive: {duration_ms}")
        cfg = self.config
        stats = self.stats
        # Event heap of (time, tiebreak, instance_id).
        heap: List[Tuple[float, int, str]] = []
        for iid, proc in self._arrivals.items():
            heapq.heappush(heap, (proc.next_iat(), next(self._counter), iid))

        # Warm-set bookkeeping.  ``expiry_at`` dedups the lazy TTL heap:
        # an entry is live only while it equals the instance's scheduled
        # expiry, so re-invocations never let the heap grow past one live
        # entry per warm instance.
        capacity = cfg.memory_bytes
        ttl_ms = cfg.ttl_minutes * 60_000.0
        warm: Set[str] = set()
        warm_mem = 0
        peak_warm = 0
        peak_mem = 0
        expiry_heap: List[Tuple[float, int, str]] = []
        expiry_at: Dict[str, float] = {}

        def schedule_expiry(iid: str, now: float) -> None:
            expiry = now + ttl_ms
            expiry_at[iid] = expiry
            heapq.heappush(expiry_heap, (expiry, next(self._counter), iid))

        def reap_expired(now: float) -> None:
            """Evict warm instances whose idle time exceeded their TTL."""
            nonlocal warm_mem
            while expiry_heap and expiry_heap[0][0] <= now:
                expiry, _tb, iid2 = heapq.heappop(expiry_heap)
                if iid2 not in warm or expiry_at.get(iid2) != expiry:
                    continue  # evicted or superseded by a later invocation
                inst2 = self._instances[iid2]
                if now - inst2.last_invocation_ms > ttl_ms:
                    warm.discard(iid2)
                    del expiry_at[iid2]
                    warm_mem -= inst2.memory_bytes
                    stats.evictions += 1
                else:
                    # Idle exactly the TTL (an arrival at the expiry
                    # instant) is still warm: look again just after
                    # ``now``, so reaping always progresses.
                    retry = math.nextafter(now, math.inf)
                    expiry_at[iid2] = retry
                    heapq.heappush(expiry_heap,
                                   (retry, next(self._counter), iid2))

        core_busy_until = [0.0] * cfg.cores
        global_seq = 0
        while heap:
            now, _tb, iid = heapq.heappop(heap)
            if now > duration_ms:
                break
            inst = self._instances[iid]
            stats.arrivals += 1
            reap_expired(now)
            cold = iid not in warm
            if cold:
                # Cold arrival: admit if it fits, else drop.
                if warm_mem + inst.memory_bytes > capacity:
                    stats.dropped += 1
                    nxt = now + self._arrivals[iid].next_iat()
                    if nxt <= duration_ms:
                        heapq.heappush(heap, (nxt, next(self._counter), iid))
                    continue
                warm.add(iid)
                warm_mem += inst.memory_bytes
            if inst.last_invocation_ms is not None:
                stats.iats_ms.append(now - inst.last_invocation_ms)

            # Least-loaded core placement.
            core = int(np.argmin(core_busy_until))
            service = self._rng.exponential(
                cfg.service_time_ms * inst.service_scale)
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
            schedule_expiry(iid, now)
            peak_warm = max(peak_warm, len(warm))
            peak_mem = max(peak_mem, warm_mem)

            nxt = now + self._arrivals[iid].next_iat()
            if nxt <= duration_ms:
                heapq.heappush(heap, (nxt, next(self._counter), iid))

        stats.simulated_ms = duration_ms
        stats.peak_warm_instances = peak_warm
        stats.peak_memory_bytes = peak_mem
        stats.jukebox_metadata_bytes = sum(
            inst.jukebox_metadata_bytes for inst in self._instances.values())
        return stats

"""Warm function instance state for the server-level model.

An instance is a memory-resident container serving one function (Sec. 2.2).
The server model tracks, per instance, everything needed to quantify
interleaving: last-invocation time, invocation counts, the global
invocation sequence number of its last run (for interleaving-degree
measurement), and optional Jukebox metadata bookkeeping mirroring the
per-process buffers of Sec. 3.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.units import MB
from repro.workloads.profiles import FunctionProfile


@dataclass
class WarmInstance:
    """One warm (memory-resident) function instance."""

    instance_id: str
    profile: FunctionProfile
    last_invocation_ms: Optional[float] = None
    #: Global invocation sequence number of this instance's previous run.
    last_global_seq: Optional[int] = None
    invocations: int = 0
    cold_starts: int = 0
    #: Jukebox metadata resident in instance memory (two buffers).
    jukebox_metadata_bytes: int = 0
    #: Multiplier on the server's mean service time for this instance
    #: (per-function heterogeneity; Jukebox-on fleets scale it down by
    #: the function's capacity uplift).  1.0 preserves legacy timing
    #: exactly.
    service_scale: float = 1.0

    @property
    def memory_bytes(self) -> int:
        """Resident memory: container + runtime footprint approximation.

        70% of Lambda functions deploy with a 128-256MB limit (Sec. 1);
        the *touched* resident set is far smaller.  We charge code +
        data working set + a fixed runtime/container overhead.
        """
        runtime_overhead = 24 * MB
        return (self.profile.footprint_bytes
                + self.profile.data_ws_bytes
                + runtime_overhead)

    def record_invocation(self, now_ms: float, global_seq: int,
                          cold: bool = False) -> None:
        """Update bookkeeping for an invocation arriving at ``now_ms``."""
        self.last_invocation_ms = now_ms
        self.last_global_seq = global_seq
        self.invocations += 1
        if cold:
            self.cold_starts += 1

    def allocate_jukebox_metadata(self, per_buffer_bytes: int) -> None:
        """Reserve the two per-instance metadata buffers (Sec. 3.4.1)."""
        self.jukebox_metadata_bytes = 2 * per_buffer_bytes

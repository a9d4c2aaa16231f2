"""DRAM model.

A deliberately simple latency/bandwidth model:

* a *random* (demand) access costs ``MemoryParams.latency`` cycles;
* a *streaming* access (Jukebox replay prefetch reads and metadata
  sequential reads hit open rows) costs ``MemoryParams.row_hit_latency``;
* sustained bandwidth is capped at ``MemoryParams.bytes_per_cycle``: a
  request stream is spaced at least ``LINE_SIZE / bytes_per_cycle`` cycles
  apart, which is how the replay engine's *timeliness* is modeled
  (Sec. 3.3: the prefetch engine streams the metadata and issues bulk
  prefetches; whether a demand access finds its block already in the L2
  depends on whether the replay front has passed it).

Traffic is accounted in :class:`repro.sim.stats.MemoryTraffic` by class so
Fig. 12 can be regenerated.
"""

from __future__ import annotations

from repro.sim.params import MemoryParams
from repro.sim.stats import MemoryTraffic
from repro.units import LINE_SIZE


class MainMemory:
    """Latency/bandwidth DRAM model with per-class traffic accounting."""

    def __init__(self, params: MemoryParams, traffic: MemoryTraffic) -> None:
        self.params = params
        self.traffic = traffic
        #: Cycles between consecutive 64B transfers at peak bandwidth.
        self.cycles_per_line = LINE_SIZE / params.bytes_per_cycle
        #: Queueing-delay multiplier applied to demand latency.  On a
        #: high-occupancy server (Fig. 1's setup: ~50% CPU load from other
        #: function instances) DRAM requests contend with the co-running
        #: tenants' traffic; the stressor raises this above 1.0.
        self.contention = 1.0

    # -- demand path -----------------------------------------------------

    def demand_fetch(self, instruction: bool) -> float:
        """A demand line fill from DRAM.  Returns its latency in cycles."""
        if instruction:
            self.traffic.demand_inst += LINE_SIZE
        else:
            self.traffic.demand_data += LINE_SIZE
        return self.params.latency * self.contention

    # -- prefetch path ---------------------------------------------------

    def prefetch_fetch(self) -> int:
        """A prefetch line fill (streamed; row-hit latency).

        The *useful vs. overpredicted* classification can only be made when
        the line is later referenced or evicted, so prefetch bytes are
        provisionally charged as overpredicted and re-classified via
        :meth:`credit_useful_prefetch`.
        """
        self.traffic.prefetch_overpredicted += LINE_SIZE
        return self.params.row_hit_latency

    def credit_useful_prefetch(self) -> None:
        """Re-classify one previously fetched prefetch line as useful."""
        self.traffic.prefetch_overpredicted -= LINE_SIZE
        self.traffic.prefetch_useful += LINE_SIZE

    # -- metadata path ---------------------------------------------------

    def metadata_write(self, nbytes: int) -> None:
        """Jukebox record-phase metadata written to DRAM."""
        self.traffic.metadata_record += nbytes

    def metadata_read(self, nbytes: int) -> None:
        """Jukebox replay-phase metadata streamed from DRAM."""
        self.traffic.metadata_replay += nbytes

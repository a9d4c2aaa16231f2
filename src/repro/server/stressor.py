"""Microarchitectural stressors modeling co-tenant interference.

Two regimes from the paper:

* the stress-ng setup of Sec. 2.3 and the simulated baseline of Sec. 5.2,
  where *all* on-chip state is obliterated between invocations of the
  function under test, is :meth:`Simulator.flush_microarch_state
  <repro.sim.core.Simulator.flush_microarch_state>` and needs no stressor;
* :meth:`Stressor.idle_gap` -- the graded regime of Fig. 1: during an
  inter-arrival gap of ``gap_ms`` on a server at fractional CPU ``load``,
  other instances run on the same core and evict the FUT's state
  progressively.  Private structures (L1s, L2, TLBs, predictor) thrash
  within a few milliseconds; the large shared LLC decays over hundreds of
  milliseconds because a 16-way set only fully evicts once it has absorbed
  ~associativity unique insertions (which is why Fig. 1 saturates around a
  one-second IAT).

While the FUT executes on a loaded server its DRAM accesses also queue
behind co-tenant traffic: :meth:`apply_contention` sets the memory model's
contention multiplier.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.core import Simulator


class Stressor:
    """Models interference from co-resident warm function instances."""

    #: Unique cache-block insertions per millisecond reaching the LLC at
    #: 100% load.  Calibrated so the LLC decays over ~0.1-1s (Fig. 1).
    UNIQUE_BLOCKS_PER_MS = 2100.0
    #: DRAM queueing-delay multiplier slope vs. load.
    CONTENTION_SLOPE = 1.6
    #: Gap beyond which private (per-core) state is fully thrashed, in ms.
    PRIVATE_THRASH_MS = 4.0

    def __init__(self, load: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= load <= 1.0:
            raise ConfigurationError(f"load must be in [0, 1]: {load}")
        self.load = load
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def idle_gap(self, sim: Simulator, gap_ms: float) -> None:
        """Apply the interference accumulated over an idle gap of
        ``gap_ms`` milliseconds at the configured load."""
        if gap_ms < 0:
            raise ConfigurationError(f"gap must be non-negative: {gap_ms}")
        if gap_ms == 0 or self.load == 0:
            return
        hier = sim.hierarchy
        unique_blocks = self.UNIQUE_BLOCKS_PER_MS * self.load * gap_ms

        if gap_ms >= self.PRIVATE_THRASH_MS:
            hier.l1i.flush()
            hier.l1d.flush()
            hier.l2.flush()
            hier.itlb.flush()
            hier.dtlb.flush()
            sim.branches.flush()
        else:
            fraction = gap_ms / self.PRIVATE_THRASH_MS
            hier.l1i.bulk_pollute(
                int(hier.l1i.params.num_lines * 2 * fraction), self._rng)
            hier.l1d.bulk_pollute(
                int(hier.l1d.params.num_lines * 2 * fraction), self._rng)
            hier.l2.bulk_pollute(
                int(hier.l2.params.num_lines * 2 * fraction), self._rng)
            if fraction > 0.5:
                sim.branches.flush()
                hier.itlb.flush()
                hier.dtlb.flush()

        hier.llc.bulk_pollute(int(unique_blocks), self._rng)

    def apply_contention(self, sim: Simulator) -> None:
        """Raise the DRAM queueing multiplier for execution under load."""
        sim.hierarchy.memory.contention = 1.0 + self.CONTENTION_SLOPE * self.load

    def clear_contention(self, sim: Simulator) -> None:
        sim.hierarchy.memory.contention = 1.0

    # ------------------------------------------------------------------

    def expected_llc_survival(self, sim: Simulator, gap_ms: float) -> float:
        """Expected fraction of LLC lines surviving a gap (analytic helper
        used in tests): per set, k ~ Poisson(n/sets) insertions evict the k
        least-recently-used lines."""
        llc = sim.hierarchy.llc
        lam = self.UNIQUE_BLOCKS_PER_MS * self.load * gap_ms / llc.num_sets
        assoc = llc.assoc
        # E[max(assoc - K, 0)] / assoc with K ~ Poisson(lam).
        surviving = 0.0
        pk = np.exp(-lam)
        for k in range(assoc):
            surviving += (assoc - k) * pk
            pk *= lam / (k + 1)
        return surviving / assoc

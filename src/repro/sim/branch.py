"""Branch direction and BTB models.

Table 1 specifies an LTAGE (gShare + bimodal) direction predictor with an
8K-entry BTB.  Traces carry branches as per-site bursts rather than
dynamic outcomes, so direction prediction is modelled per site
(:class:`SiteBranchModel`): a cold mispredict the first time a site runs
after a flush, then a steady-state rate derived from the site's bias,
standing in for a trained gShare/bimodal pair.  Branch targets go through
a set-associative :class:`BTB`.

The predictor matters to the reproduction for two reasons:

* *bad speculation* cycles in the Top-Down stacks (Fig. 2) come from
  direction mispredicts;
* a flushed/thrashed BTB adds taken-branch fetch bubbles, part of the extra
  fetch-latency stalls in lukewarm executions.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.params import CoreParams


class SiteBranchModel:
    """Aggregate per-site branch model used by the analytic core.

    Traces carry one ``BRANCH`` event per conditional *site* per burst with
    the site's dynamic execution count and taken probability.  Rather than
    simulating every dynamic branch, this model charges:

    * one *cold* mispredict plus one BTB-allocation fetch bubble the first
      time a site executes after a flush (lukewarm invocations pay this for
      every site, warm ones for none);
    * a steady-state mispredict rate per remaining execution, derived from
      the site's bias: ``2*p*(1-p)*correlation_factor`` approximates a
      trained 2-bit/gshare predictor that captures most but not all
      correlation.
    """

    #: Fraction of intrinsic branch entropy a trained predictor fails to
    #: capture.  Calibrated so warm branch MPKI lands in the 2-6 range
    #: typical for server workloads.
    CORRELATION_MISS_FACTOR = 0.12

    def __init__(self, btb: "BTB") -> None:
        self.btb = btb
        self._trained: set = set()
        self.mispredicts = 0.0
        self.cold_mispredicts = 0
        self.executions = 0

    def execute_site(self, pc: int, executions: int,
                     taken_prob: float) -> Tuple[float, int]:
        """Run ``executions`` dynamic branches of the site at ``pc``.

        Returns ``(mispredicts, btb_bubbles)``.
        """
        self.executions += executions
        mispredicts = 0.0
        bubbles = 0
        remaining = executions
        if pc not in self._trained:
            self._trained.add(pc)
            mispredicts += 1.0
            self.cold_mispredicts += 1
            remaining -= 1
            if not self.btb.access(pc):
                bubbles += 1
        if remaining > 0:
            p = taken_prob
            steady = 2.0 * p * (1.0 - p) * self.CORRELATION_MISS_FACTOR
            mispredicts += remaining * steady
        self.mispredicts += mispredicts
        return mispredicts, bubbles

    def flush(self) -> None:
        """Forget all training (lukewarm baseline flush)."""
        self._trained.clear()
        self.btb.flush()


class BTB:
    """Set-associative branch target buffer with LRU replacement."""

    def __init__(self, params: CoreParams) -> None:
        entries = params.btb_entries
        self.assoc = params.btb_assoc
        self.num_sets = entries // self.assoc
        self._set_mask = self.num_sets - 1
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.lookups = 0
        self.misses = 0

    def access(self, pc: int) -> bool:
        """Look up the target for the branch at ``pc``; allocate on miss."""
        self.lookups += 1
        key = pc >> 2
        lru = self._sets[key & self._set_mask]
        if key in lru:
            if lru[-1] != key:
                lru.remove(key)
                lru.append(key)
            return True
        self.misses += 1
        if len(lru) >= self.assoc:
            lru.pop(0)
        lru.append(key)
        return False

    def flush(self) -> None:
        for lru in filter(None, self._sets):
            del lru[:]

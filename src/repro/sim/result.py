"""What one simulated invocation measured, without the simulator.

Cached cells hold :class:`InvocationResult` values, so this module
imports only the counters and the Top-Down breakdown they are made of:
a re-run served from the cache unpickles them without loading
:mod:`repro.sim.core`, its columnar backend or numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.stats import HierarchyStats
from repro.sim.topdown import TopDownBreakdown

#: Valid values of ``Simulator(backend=...)`` / ``RunConfig.backend``.
BACKENDS = ("columnar", "scalar")


@dataclass
class InvocationResult:
    """Everything measured while executing one invocation."""

    instructions: int
    topdown: TopDownBreakdown
    stats: HierarchyStats
    #: Demand instruction fetches served per level.
    fetch_sources: Dict[str, int] = field(default_factory=dict)
    mispredicts: float = 0.0
    btb_bubbles: int = 0

    @property
    def cycles(self) -> float:
        return self.topdown.total_cycles

    @property
    def cpi(self) -> float:
        return self.topdown.cpi(self.instructions)

    def mpki(self, level: str, kind: str = "all") -> float:
        return self.stats.levels()[level].mpki(self.instructions, kind)

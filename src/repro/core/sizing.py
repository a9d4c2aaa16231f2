"""Dynamic per-function metadata sizing (Sec. 5.1's extension).

The paper notes Jukebox "is designed to seamlessly extend to dynamic
metadata sizes": the OS bookkeeping of Sec. 3.4.1 gains a size field, and
the scheduler assigns each function instance a buffer matched to its
working set (Go services need ~4-8KB, large Python/NodeJS runtimes the full
16KB or more).

:class:`MetadataSizer` implements the OS-side policy: observe the recorded
metadata volume (and whether the budget truncated it) over a window of
invocations, then recommend a page-granular budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.jukebox import JukeboxInvocationReport
from repro.errors import ConfigurationError
from repro.units import KB, PAGE_SIZE, align_up


@dataclass
class SizingDecision:
    """The sizer's recommendation for one function."""

    budget_bytes: int
    observed_p95_bytes: int
    truncating: bool
    samples: int


@dataclass
class MetadataSizer:
    """Recommends per-function metadata budgets from observed recordings.

    Policy: budget = p95 of observed recorded bytes x ``headroom``, rounded
    up to whole pages, clamped to [``min_bytes``, ``max_bytes``].  While a
    function's recordings are being truncated by its current budget the
    sizer doubles the recommendation instead (the observations are lower
    bounds in that regime).
    """

    headroom: float = 1.25
    min_bytes: int = 1 * PAGE_SIZE
    max_bytes: int = 16 * PAGE_SIZE  # 64KB: two pages beyond Broadwell's 32KB
    window: int = 32
    _observed: Dict[str, List[int]] = field(default_factory=dict)
    _truncated: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.headroom < 1.0:
            raise ConfigurationError(f"headroom must be >= 1: {self.headroom}")
        if self.min_bytes > self.max_bytes:
            raise ConfigurationError("min budget exceeds max budget")

    def observe(self, function_id: str,
                report: JukeboxInvocationReport) -> None:
        """Feed one invocation's record-phase outcome."""
        samples = self._observed.setdefault(function_id, [])
        samples.append(report.recorded_bytes)
        if len(samples) > self.window:
            del samples[: len(samples) - self.window]
        self._truncated[function_id] = report.recorded_dropped > 0

    def recommend(self, function_id: str,
                  current_budget: int) -> SizingDecision:
        """Recommend a budget for the next scheduling epoch."""
        samples = self._observed.get(function_id, [])
        if not samples:
            return SizingDecision(budget_bytes=align_up(current_budget,
                                                        PAGE_SIZE),
                                  observed_p95_bytes=0,
                                  truncating=False, samples=0)
        ordered = sorted(samples)
        p95 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]
        if self._truncated.get(function_id, False):
            raw = current_budget * 2
        else:
            raw = int(p95 * self.headroom)
        budget = max(self.min_bytes,
                     min(self.max_bytes, align_up(raw, PAGE_SIZE)))
        return SizingDecision(budget_bytes=budget, observed_p95_bytes=p95,
                              truncating=self._truncated.get(function_id,
                                                             False),
                              samples=len(samples))

    def total_fleet_bytes(self, budgets: Dict[str, int]) -> int:
        """Aggregate metadata cost of a fleet (two buffers per instance)."""
        return 2 * sum(budgets.values())

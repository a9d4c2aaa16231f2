"""Top-Down cycle accounting (Yasin, ISPASS 2014; paper Sec. 2.3).

The analytic core charges every cycle to exactly one of the four top-level
Top-Down categories; the front-end category is further split into *fetch
latency* and *fetch bandwidth* as in Figs. 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TopDownBreakdown:
    """Cycles per Top-Down category for one (or more) invocations."""

    retiring: float = 0.0
    fetch_latency: float = 0.0
    fetch_bandwidth: float = 0.0
    bad_speculation: float = 0.0
    backend_bound: float = 0.0

    @property
    def frontend_bound(self) -> float:
        return self.fetch_latency + self.fetch_bandwidth

    @property
    def total_cycles(self) -> float:
        return (self.retiring + self.fetch_latency + self.fetch_bandwidth
                + self.bad_speculation + self.backend_bound)

    def cpi(self, instructions: int) -> float:
        if instructions <= 0:
            return 0.0
        return self.total_cycles / instructions

    def __add__(self, other: "TopDownBreakdown") -> "TopDownBreakdown":
        return TopDownBreakdown(
            retiring=self.retiring + other.retiring,
            fetch_latency=self.fetch_latency + other.fetch_latency,
            fetch_bandwidth=self.fetch_bandwidth + other.fetch_bandwidth,
            bad_speculation=self.bad_speculation + other.bad_speculation,
            backend_bound=self.backend_bound + other.backend_bound,
        )

    def __sub__(self, other: "TopDownBreakdown") -> "TopDownBreakdown":
        return TopDownBreakdown(
            retiring=self.retiring - other.retiring,
            fetch_latency=self.fetch_latency - other.fetch_latency,
            fetch_bandwidth=self.fetch_bandwidth - other.fetch_bandwidth,
            bad_speculation=self.bad_speculation - other.bad_speculation,
            backend_bound=self.backend_bound - other.backend_bound,
        )

"""Figure 3: front-end stall cycles split into fetch latency vs. bandwidth.

Same runs as Fig. 2; the front-end portion of the CPI is isolated and
normalized to the *reference* front-end CPI per function.  Paper headline:
fetch-latency stalls grow by ~94% under interleaving while fetch-bandwidth
stalls grow by only ~22%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments import fig02_topdown
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams

#: Derived from the Fig. 2 sweep (cache hits when Fig. 2 already ran).
SWEEP_CONFIGS = fig02_topdown.SWEEP_CONFIGS


@dataclass
class Fig3Entry:
    abbrev: str
    ref_fetch_latency: float
    ref_fetch_bandwidth: float
    int_fetch_latency: float
    int_fetch_bandwidth: float

    @property
    def ref_frontend(self) -> float:
        return self.ref_fetch_latency + self.ref_fetch_bandwidth

    def normalized(self, value: float) -> float:
        """Normalize to the reference front-end CPI (the Fig. 3 y-axis)."""
        return value / self.ref_frontend if self.ref_frontend else 0.0


@dataclass
class Fig3Result:
    entries: List[Fig3Entry] = field(default_factory=list)

    @property
    def mean_latency_growth(self) -> float:
        growths = [e.int_fetch_latency / e.ref_fetch_latency - 1.0
                   for e in self.entries if e.ref_fetch_latency > 0]
        return sum(growths) / len(growths) if growths else 0.0

    @property
    def mean_bandwidth_growth(self) -> float:
        growths = [e.int_fetch_bandwidth / e.ref_fetch_bandwidth - 1.0
                   for e in self.entries if e.ref_fetch_bandwidth > 0]
        return sum(growths) / len(growths) if growths else 0.0


def from_fig2(fig2: fig02_topdown.Fig2Result) -> Fig3Result:
    """Derive the front-end split from existing Fig. 2 runs."""
    result = Fig3Result()
    for entry in fig2.entries:
        result.entries.append(Fig3Entry(
            abbrev=entry.abbrev,
            ref_fetch_latency=entry.reference["fetch_latency"],
            ref_fetch_bandwidth=entry.reference["fetch_bandwidth"],
            int_fetch_latency=entry.interleaved["fetch_latency"],
            int_fetch_bandwidth=entry.interleaved["fetch_bandwidth"],
        ))
    return result


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None,
        fig2: Optional[fig02_topdown.Fig2Result] = None) -> Fig3Result:
    if fig2 is None:
        fig2 = fig02_topdown.run(cfg, machine, functions)
    return from_fig2(fig2)


def render(result: Fig3Result) -> str:
    rows = []
    for e in result.entries:
        rows.append([
            e.abbrev,
            f"{e.normalized(e.ref_fetch_latency) * 100:.0f}%",
            f"{e.normalized(e.ref_fetch_bandwidth) * 100:.0f}%",
            f"{e.normalized(e.int_fetch_latency) * 100:.0f}%",
            f"{e.normalized(e.int_fetch_bandwidth) * 100:.0f}%",
        ])
    table = format_table(
        ["Function", "ref latency", "ref bandwidth",
         "int latency", "int bandwidth"],
        rows,
        title=("Figure 3: front-end stalls, normalized to the reference "
               "front-end CPI"),
    )
    summary = (f"Mean growth under interleaving: fetch latency "
               f"{result.mean_latency_growth * 100:+.0f}% "
               f"(paper: +94%), fetch bandwidth "
               f"{result.mean_bandwidth_growth * 100:+.0f}% (paper: +22%)")
    return f"{table}\n\n{summary}"

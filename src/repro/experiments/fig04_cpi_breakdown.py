"""Figure 4: mean interleaved CPI normalized to the mean reference CPI.

Aggregates the Fig. 2 runs into the paper's single summary bar: the
reference CPI (striped) plus the extra cycles under interleaving (solid),
broken into *fetch latency*, *fetch bandwidth* and *rest*.  Paper headline:
fetch latency is responsible for ~56% of all extra stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments import fig02_topdown
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams

#: Derived from the Fig. 2 sweep (cache hits when Fig. 2 already ran).
SWEEP_CONFIGS = fig02_topdown.SWEEP_CONFIGS


@dataclass
class Fig4Result:
    reference_cpi: float
    interleaved_cpi: float
    extra_fetch_latency: float
    extra_fetch_bandwidth: float
    extra_rest: float

    @property
    def extra_total(self) -> float:
        return (self.extra_fetch_latency + self.extra_fetch_bandwidth
                + self.extra_rest)

    @property
    def fetch_latency_share_of_extra(self) -> float:
        """The paper's 56% headline number."""
        extra = self.extra_total
        return self.extra_fetch_latency / extra if extra else 0.0

    @property
    def normalized_interleaved(self) -> float:
        return (self.interleaved_cpi / self.reference_cpi
                if self.reference_cpi else 0.0)


def from_fig2(fig2: fig02_topdown.Fig2Result) -> Fig4Result:
    ref = fig2.mean_stack("reference")
    itl = fig2.mean_stack("interleaved")
    ref_cpi = sum(ref.values())
    itl_cpi = sum(itl.values())
    extra_fl = max(0.0, itl["fetch_latency"] - ref["fetch_latency"])
    extra_fb = max(0.0, itl["fetch_bandwidth"] - ref["fetch_bandwidth"])
    extra_rest = max(0.0, (itl_cpi - ref_cpi) - extra_fl - extra_fb)
    return Fig4Result(
        reference_cpi=ref_cpi,
        interleaved_cpi=itl_cpi,
        extra_fetch_latency=extra_fl,
        extra_fetch_bandwidth=extra_fb,
        extra_rest=extra_rest,
    )


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None,
        fig2: Optional[fig02_topdown.Fig2Result] = None) -> Fig4Result:
    if fig2 is None:
        fig2 = fig02_topdown.run(cfg, machine, functions)
    return from_fig2(fig2)


def render(result: Fig4Result) -> str:
    ref = result.reference_cpi
    rows = [
        ["reference CPI (striped)", "100%"],
        ["extra: fetch latency", f"{result.extra_fetch_latency / ref * 100:.0f}%"],
        ["extra: fetch bandwidth", f"{result.extra_fetch_bandwidth / ref * 100:.0f}%"],
        ["extra: rest", f"{result.extra_rest / ref * 100:.0f}%"],
        ["interleaved total", f"{result.normalized_interleaved * 100:.0f}%"],
    ]
    table = format_table(
        ["Component", "vs. reference CPI"], rows,
        title="Figure 4: mean interleaved CPI normalized to reference")
    summary = (f"Fetch latency accounts for "
               f"{result.fetch_latency_share_of_extra * 100:.0f}% of the "
               f"extra stall cycles (paper: 56%)")
    return f"{table}\n\n{summary}"

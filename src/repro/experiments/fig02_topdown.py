"""Figure 2: Top-Down CPI stacks, reference vs. interleaved execution.

Protocol (Sec. 2.3): each of the 20 functions runs in two configurations on
the characterization platform -- *reference* (back-to-back on an idle core,
fully warm state) and *interleaved* (a stressor obliterates all
microarchitectural state between invocations).  The CPI stack is broken
into the four top-level Top-Down categories.

Headline paper numbers: interleaving raises CPI by 31-114% (mean ~70%);
front-end stalls are ~51%/55% of all cycles in reference/interleaved runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_stacked_bars, format_table
from repro.engine import sweep_configs
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams, broadwell
from repro.sim.topdown import TopDownBreakdown
from repro.workloads.suite import suite_subset

CATEGORIES = ("retiring", "fetch_latency", "fetch_bandwidth",
              "bad_speculation", "backend_bound")

#: Registry configs this experiment sweeps per function (Figs. 3 and 4
#: are derived from the same runs).
SWEEP_CONFIGS = ("reference", "baseline")


@dataclass
class Fig2Entry:
    """Per-function reference and interleaved CPI stacks."""

    abbrev: str
    reference: Dict[str, float]
    interleaved: Dict[str, float]

    @property
    def reference_cpi(self) -> float:
        return sum(self.reference.values())

    @property
    def interleaved_cpi(self) -> float:
        return sum(self.interleaved.values())

    @property
    def cpi_increase(self) -> float:
        return self.interleaved_cpi / self.reference_cpi - 1.0

    def frontend_fraction(self, which: str) -> float:
        stack = self.reference if which == "reference" else self.interleaved
        total = sum(stack.values())
        return (stack["fetch_latency"] + stack["fetch_bandwidth"]) / total


@dataclass
class Fig2Result:
    entries: List[Fig2Entry] = field(default_factory=list)

    @property
    def mean_cpi_increase(self) -> float:
        return sum(e.cpi_increase for e in self.entries) / len(self.entries)

    def mean_frontend_fraction(self, which: str) -> float:
        return (sum(e.frontend_fraction(which) for e in self.entries)
                / len(self.entries))

    def mean_stack(self, which: str) -> Dict[str, float]:
        acc = {cat: 0.0 for cat in CATEGORIES}
        for e in self.entries:
            stack = e.reference if which == "reference" else e.interleaved
            for cat in CATEGORIES:
                acc[cat] += stack[cat]
        return {cat: v / len(self.entries) for cat, v in acc.items()}


def _stack(td: TopDownBreakdown, instructions: int) -> Dict[str, float]:
    return {cat: getattr(td, cat) / max(1, instructions) for cat in CATEGORIES}


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None) -> Fig2Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else broadwell()
    result = Fig2Result()
    profiles = suite_subset(list(functions) if functions else None)
    runs = sweep_configs(profiles, machine, cfg, SWEEP_CONFIGS)
    for profile in profiles:
        ref = runs[profile.abbrev]["reference"]
        itl = runs[profile.abbrev]["baseline"]
        ref_td = sum((r.topdown for r in ref.results), TopDownBreakdown())
        itl_td = sum((r.topdown for r in itl.results), TopDownBreakdown())
        result.entries.append(Fig2Entry(
            abbrev=profile.abbrev,
            reference=_stack(ref_td, ref.instructions),
            interleaved=_stack(itl_td, itl.instructions),
        ))
    return result


def render(result: Fig2Result) -> str:
    parts: List[str] = []
    labels: List[str] = []
    stacks: List[Dict[str, float]] = []
    for entry in result.entries:
        labels.append(f"{entry.abbrev} (ref)")
        stacks.append(entry.reference)
        labels.append(f"{entry.abbrev} (int)")
        stacks.append(entry.interleaved)
    symbols = {"retiring": "R", "fetch_latency": "L", "fetch_bandwidth": "W",
               "bad_speculation": "S", "backend_bound": "B"}
    parts.append(format_stacked_bars(
        labels, stacks, order=list(CATEGORIES), symbols=symbols,
        title="Figure 2: Top-Down CPI stacks (striped=reference, solid=interleaved)",
    ))
    rows = [[e.abbrev, e.reference_cpi, e.interleaved_cpi,
             f"{e.cpi_increase * 100:+.0f}%",
             f"{e.frontend_fraction('reference') * 100:.0f}%",
             f"{e.frontend_fraction('interleaved') * 100:.0f}%"]
            for e in result.entries]
    rows.append(["Mean",
                 sum(e.reference_cpi for e in result.entries) / len(result.entries),
                 sum(e.interleaved_cpi for e in result.entries) / len(result.entries),
                 f"{result.mean_cpi_increase * 100:+.0f}%",
                 f"{result.mean_frontend_fraction('reference') * 100:.0f}%",
                 f"{result.mean_frontend_fraction('interleaved') * 100:.0f}%"])
    parts.append(format_table(
        ["Function", "CPI ref", "CPI int", "Increase", "FE% ref", "FE% int"],
        rows, title="Summary"))
    return "\n\n".join(parts)

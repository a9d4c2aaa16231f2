"""Figure 9: speedup as a function of the metadata storage budget.

Protocol (Sec. 5.1): 1KB regions, 16-entry CRRB, metadata budgets of 8, 12,
16 and 32KB; speedup over the no-Jukebox lukewarm baseline for the three
representative per-language functions (Email-P, Pay-N, ProdL-G) plus the
suite geomean.  Paper headlines: little gain beyond 16KB; functions with
large working sets (Pay-N) are the most budget-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import geomean_speedup, speedup
from repro.analysis.report import format_table
from repro.engine import Job, sweep
from repro.experiments.scale import RunConfig
from repro.sim.params import JukeboxParams, MachineParams, skylake
from repro.units import KB
from repro.workloads.suite import REPRESENTATIVES, suite_subset

DEFAULT_BUDGETS = (8 * KB, 12 * KB, 16 * KB, 32 * KB)

#: Registry configs this experiment sweeps (jukebox once per budget).
SWEEP_CONFIGS = ("baseline", "jukebox")


@dataclass
class Fig9Result:
    budgets: List[int]
    #: abbrev -> budget -> speedup fraction.
    speedups: Dict[str, Dict[int, float]] = field(default_factory=dict)
    geomean: Dict[int, float] = field(default_factory=dict)
    representatives: List[str] = field(default_factory=list)

    def saturation_budget(self, threshold: float = 0.01) -> int:
        """Smallest budget within ``threshold`` of the largest budget's
        geomean speedup (paper: 16KB)."""
        best = self.geomean[max(self.budgets)]
        for budget in sorted(self.budgets):
            if self.geomean[budget] >= best - threshold:
                return budget
        return max(self.budgets)


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None,
        budgets: Sequence[int] = DEFAULT_BUDGETS) -> Fig9Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    profiles = suite_subset(list(functions) if functions else None)
    result = Fig9Result(budgets=list(budgets),
                        representatives=[a for a in REPRESENTATIVES
                                         if any(p.abbrev == a for p in profiles)])

    # One flat job list -- baselines plus every (budget x function) cell --
    # so a parallel executor sees the whole frontier at once.
    machines = {
        budget: machine.with_jukebox(JukeboxParams(
            crrb_entries=machine.jukebox.crrb_entries,
            region_size=machine.jukebox.region_size,
            metadata_bytes=budget,
        ))
        for budget in budgets
    }
    jobs = [Job.make(p, machine, cfg, "baseline") for p in profiles]
    jobs += [Job.make(p, machines[budget], cfg, "jukebox")
             for budget in budgets for p in profiles]
    runs = iter(sweep(jobs))
    base_cycles: Dict[str, float] = {
        p.abbrev: next(runs).cycles for p in profiles}
    for budget in budgets:
        per_fn: List[float] = []
        for profile in profiles:
            s = speedup(base_cycles[profile.abbrev], next(runs).cycles)
            result.speedups.setdefault(profile.abbrev, {})[budget] = s
            per_fn.append(s)
        result.geomean[budget] = geomean_speedup(per_fn)
    return result


def render(result: Fig9Result) -> str:
    shown = result.representatives or list(result.speedups)[:3]
    headers = ["Budget"] + shown + ["GEOMEAN"]
    rows = []
    for budget in result.budgets:
        row: List[object] = [f"{budget // KB}KB"]
        for abbrev in shown:
            row.append(f"{result.speedups[abbrev][budget] * 100:+.1f}%")
        row.append(f"{result.geomean[budget] * 100:+.1f}%")
        rows.append(row)
    table = format_table(headers, rows,
                         title="Figure 9: speedup vs. metadata storage budget")
    summary = (f"Speedup saturates at {result.saturation_budget() // KB}KB "
               f"(paper: little gain beyond 16KB)")
    return f"{table}\n\n{summary}"

"""Table 3 (and Sec. 5.6): Jukebox's instruction-MPKI reduction on the
Skylake-like vs. Broadwell-like simulated configurations.

Protocol: both machines run in evaluation mode; Broadwell uses the larger
32KB per-phase metadata store the paper found necessary for its small
256KB L2.  Paper headlines: the LLC instruction misses are nearly
eliminated on both platforms (-86% / -91%); L2 instruction misses drop by
-74% on Skylake but only -15% on Broadwell (conflict evictions push
prefetched lines out of the small L2 before use), which is why the
Broadwell geomean speedup is ~12% vs. 18.7% on Skylake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.metrics import geomean_speedup, percent_change, speedup
from repro.analysis.report import format_table
from repro.engine import sweep_configs
from repro.experiments.scale import RunConfig
from repro.sim.params import MODE_EVALUATION, broadwell, skylake
from repro.workloads.suite import suite_subset

#: Registry configs this experiment sweeps per function (on both machines).
SWEEP_CONFIGS = ("baseline", "jukebox")


@dataclass
class Table3Row:
    machine: str
    l2_inst_reduction_pct: float
    llc_inst_reduction_pct: float
    jukebox_geomean_speedup: float


@dataclass
class Table3Result:
    rows: List[Table3Row] = field(default_factory=list)

    def row(self, machine: str) -> Table3Row:
        for r in self.rows:
            if r.machine == machine:
                return r
        raise KeyError(machine)


def run(cfg: Optional[RunConfig] = None,
        machine=None,  # unused: this experiment always compares both machines
        functions: Optional[Sequence[str]] = None) -> Table3Result:
    cfg = cfg if cfg is not None else RunConfig()
    profiles = suite_subset(list(functions) if functions else None)
    result = Table3Result()
    machines = [skylake(), broadwell(mode=MODE_EVALUATION)]
    for m in machines:
        base_l2 = base_llc = jb_l2 = jb_llc = 0.0
        speedups: List[float] = []
        runs = sweep_configs(profiles, m, cfg, SWEEP_CONFIGS)
        for profile in profiles:
            base = runs[profile.abbrev]["baseline"]
            jb = runs[profile.abbrev]["jukebox"]
            base_l2 += base.mean_mpki("l2", "inst")
            base_llc += base.mean_mpki("llc", "inst")
            jb_l2 += jb.mean_mpki("l2", "inst")
            jb_llc += jb.mean_mpki("llc", "inst")
            speedups.append(speedup(base.cycles, jb.cycles))
        result.rows.append(Table3Row(
            machine=m.name,
            l2_inst_reduction_pct=percent_change(base_l2, jb_l2),
            llc_inst_reduction_pct=percent_change(base_llc, jb_llc),
            jukebox_geomean_speedup=geomean_speedup(speedups),
        ))
    return result


def render(result: Table3Result) -> str:
    rows = [[r.machine.capitalize(),
             f"{r.l2_inst_reduction_pct:+.0f}%",
             f"{r.llc_inst_reduction_pct:+.0f}%",
             f"{r.jukebox_geomean_speedup * 100:+.1f}%"] for r in result.rows]
    table = format_table(
        ["Machine", "L2 inst misses", "LLC inst misses", "JB speedup"],
        rows,
        title=("Table 3: reduction in instruction MPKI with Jukebox "
               "(paper: Skylake -74%/-86%; Broadwell -15%/-91%; "
               "Broadwell speedup ~12%)"))
    return table

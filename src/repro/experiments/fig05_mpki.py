"""Figure 5: L2 and L3 MPKI breakdowns (instructions vs. data).

Same two configurations as Fig. 2 on the characterization platform with
its small 256KB L2.  Paper headlines: high L2 MPKI in both configurations
(instruction misses exceed data misses); the LLC sees essentially *no*
instruction misses in reference runs but >10 MPKI under interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.engine import sweep_configs
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams, broadwell
from repro.workloads.suite import suite_subset

#: Registry configs this experiment sweeps per function.
SWEEP_CONFIGS = ("reference", "baseline")


@dataclass
class Fig5Entry:
    abbrev: str
    l2_ref_inst: float
    l2_ref_data: float
    l2_int_inst: float
    l2_int_data: float
    llc_ref_inst: float
    llc_ref_data: float
    llc_int_inst: float
    llc_int_data: float


@dataclass
class Fig5Result:
    entries: List[Fig5Entry] = field(default_factory=list)

    def mean(self, attr: str) -> float:
        return sum(getattr(e, attr) for e in self.entries) / len(self.entries)

    @property
    def mean_l2_ref_total(self) -> float:
        return self.mean("l2_ref_inst") + self.mean("l2_ref_data")

    @property
    def mean_l2_int_total(self) -> float:
        return self.mean("l2_int_inst") + self.mean("l2_int_data")


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None) -> Fig5Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else broadwell()
    result = Fig5Result()
    profiles = suite_subset(list(functions) if functions else None)
    runs = sweep_configs(profiles, machine, cfg, SWEEP_CONFIGS)
    for profile in profiles:
        ref = runs[profile.abbrev]["reference"]
        itl = runs[profile.abbrev]["baseline"]
        result.entries.append(Fig5Entry(
            abbrev=profile.abbrev,
            l2_ref_inst=ref.mean_mpki("l2", "inst"),
            l2_ref_data=ref.mean_mpki("l2", "data"),
            l2_int_inst=itl.mean_mpki("l2", "inst"),
            l2_int_data=itl.mean_mpki("l2", "data"),
            llc_ref_inst=ref.mean_mpki("llc", "inst"),
            llc_ref_data=ref.mean_mpki("llc", "data"),
            llc_int_inst=itl.mean_mpki("llc", "inst"),
            llc_int_data=itl.mean_mpki("llc", "data"),
        ))
    return result


def render(result: Fig5Result) -> str:
    rows_l2 = [[e.abbrev, e.l2_ref_inst, e.l2_ref_data,
                e.l2_int_inst, e.l2_int_data] for e in result.entries]
    rows_l2.append(["Mean", result.mean("l2_ref_inst"), result.mean("l2_ref_data"),
                    result.mean("l2_int_inst"), result.mean("l2_int_data")])
    rows_l3 = [[e.abbrev, e.llc_ref_inst, e.llc_ref_data,
                e.llc_int_inst, e.llc_int_data] for e in result.entries]
    rows_l3.append(["Mean", result.mean("llc_ref_inst"),
                    result.mean("llc_ref_data"),
                    result.mean("llc_int_inst"), result.mean("llc_int_data")])
    t1 = format_table(
        ["Function", "ref inst", "ref data", "int inst", "int data"],
        rows_l2, title="Figure 5a: L2 MPKI breakdown")
    t2 = format_table(
        ["Function", "ref inst", "ref data", "int inst", "int data"],
        rows_l3, title="Figure 5b: L3 (LLC) MPKI breakdown")
    return f"{t1}\n\n{t2}"

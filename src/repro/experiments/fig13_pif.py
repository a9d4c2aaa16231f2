"""Figure 13: comparison with PIF, the state-of-the-art stream prefetcher.

Protocol (Sec. 5.5): five configurations on the representative trio
(Email-P, Pay-N, ProdL-G) plus geomean -- baseline, PIF (realistic 49KB
index + 164KB streams, state lost between invocations), PIF-ideal
(unlimited persistent metadata), Jukebox, and Jukebox + PIF-ideal.

Paper headlines: PIF +2.4% average (max 4.8%), PIF-ideal +6.7% (max
12.4%), Jukebox +18.7%: bulk replay into the L2 beats demand-synchronized
streaming when the instruction footprint lives in DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import geomean_speedup, speedup
from repro.analysis.report import format_table
from repro.core.pif import PIFParams, pif_ideal_params
from repro.engine import Job, sweep
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams, skylake
from repro.workloads.suite import REPRESENTATIVES, suite_subset

CONFIGS = ("pif", "pif_ideal", "jukebox", "jukebox_pif_ideal")

#: Registry configs this experiment sweeps ("pif" covers the PIF-ideal
#: and JB+PIF variants via its params/with_jukebox options).
SWEEP_CONFIGS = ("baseline", "pif", "jukebox")


@dataclass
class Fig13Result:
    functions: List[str] = field(default_factory=list)
    #: config -> abbrev -> speedup fraction.
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def geomean(self, config: str) -> float:
        values = list(self.speedups[config].values())
        return geomean_speedup(values) if values else 0.0


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None) -> Fig13Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    profiles = suite_subset(
        list(functions) if functions else list(REPRESENTATIVES))
    result = Fig13Result(functions=[p.abbrev for p in profiles])
    for config in CONFIGS:
        result.speedups[config] = {}

    pif_params = PIFParams()
    ideal_params = pif_ideal_params()
    cell_opts = {
        "pif": {"params": pif_params},
        "pif_ideal": {"params": ideal_params},
        "jukebox": {},
        "jukebox_pif_ideal": {"params": ideal_params, "with_jukebox": True},
    }
    registry_config = {"pif": "pif", "pif_ideal": "pif", "jukebox": "jukebox",
                       "jukebox_pif_ideal": "pif"}
    jobs = []
    for profile in profiles:
        jobs.append(Job.make(profile, machine, cfg, "baseline"))
        for config in CONFIGS:
            jobs.append(Job.make(profile, machine, cfg,
                                 registry_config[config],
                                 **cell_opts[config]))
    flat = iter(sweep(jobs))
    for profile in profiles:
        base_cycles = next(flat).cycles
        for config in CONFIGS:
            result.speedups[config][profile.abbrev] = speedup(
                base_cycles, next(flat).cycles)
    return result


_LABELS = {
    "pif": "PIF",
    "pif_ideal": "PIF-ideal",
    "jukebox": "Jukebox",
    "jukebox_pif_ideal": "JB + PIF-ideal",
}


def render(result: Fig13Result) -> str:
    headers = ["Config"] + result.functions + ["GEOMEAN"]
    rows = []
    for config in CONFIGS:
        row: List[object] = [_LABELS[config]]
        for abbrev in result.functions:
            row.append(f"{result.speedups[config][abbrev] * 100:+.1f}%")
        row.append(f"{result.geomean(config) * 100:+.1f}%")
        rows.append(row)
    table = format_table(headers, rows,
                         title="Figure 13: PIF vs. Jukebox speedups")
    summary = (f"PIF {result.geomean('pif') * 100:+.1f}% (paper: +2.4%), "
               f"PIF-ideal {result.geomean('pif_ideal') * 100:+.1f}% "
               f"(paper: +6.7%), Jukebox {result.geomean('jukebox') * 100:+.1f}% "
               f"(paper: +18.7%)")
    return f"{table}\n\n{summary}"

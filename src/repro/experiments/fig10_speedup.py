"""Figure 10: the main result -- Jukebox and perfect-I-cache speedups.

Protocol (Sec. 5.2): the Skylake-like machine; the baseline flushes all
microarchitectural state between invocations; Jukebox uses 16KB metadata,
1KB regions and a 16-entry CRRB; perfect-I-cache is an infinite L1-I whose
contents survive across invocations.  Speedups are relative to the
baseline.  Paper headlines: Jukebox +18.7% geomean (max ~29.5% on Auth-G);
perfect-I-cache +31% mean (max 46% on Auth-N); per-function Jukebox gains
correlate with the perfect-I-cache opportunity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.metrics import geomean_speedup, speedup
from repro.analysis.report import format_table
from repro.engine import sweep_configs
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams, skylake
from repro.workloads.suite import suite_subset

#: Registry configs this experiment sweeps per function.
SWEEP_CONFIGS = ("baseline", "jukebox", "perfect")


@dataclass
class Fig10Entry:
    abbrev: str
    baseline_cpi: float
    jukebox_speedup: float
    perfect_speedup: float


@dataclass
class Fig10Result:
    entries: List[Fig10Entry] = field(default_factory=list)

    @property
    def jukebox_geomean(self) -> float:
        return geomean_speedup([e.jukebox_speedup for e in self.entries])

    @property
    def perfect_geomean(self) -> float:
        return geomean_speedup([e.perfect_speedup for e in self.entries])

    def correlation(self) -> float:
        """Pearson correlation between Jukebox and perfect-I$ speedups
        (the paper notes the two track each other).  NaN when either
        series has no spread, since r is undefined there.

        Pure Python (:func:`math.fsum`), so rendering a cached result
        loads no numpy; it agrees with ``numpy.corrcoef`` to 1e-12."""
        jb = [e.jukebox_speedup for e in self.entries]
        pf = [e.perfect_speedup for e in self.entries]
        if len(jb) < 2:
            return 1.0
        if min(jb) == max(jb) or min(pf) == max(pf):
            return math.nan
        jb_mean = math.fsum(jb) / len(jb)
        pf_mean = math.fsum(pf) / len(pf)
        dj = [x - jb_mean for x in jb]
        dp = [y - pf_mean for y in pf]
        r = math.fsum(a * b for a, b in zip(dj, dp)) / math.sqrt(
            math.fsum(a * a for a in dj) * math.fsum(b * b for b in dp))
        # Rounding can carry |r| past 1 by an ulp; numpy clips it too.
        return max(-1.0, min(1.0, r))


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None) -> Fig10Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    result = Fig10Result()
    profiles = suite_subset(list(functions) if functions else None)
    runs = sweep_configs(profiles, machine, cfg, SWEEP_CONFIGS)
    for profile in profiles:
        cell = runs[profile.abbrev]
        base, jb, pf = cell["baseline"], cell["jukebox"], cell["perfect"]
        result.entries.append(Fig10Entry(
            abbrev=profile.abbrev,
            baseline_cpi=base.cpi,
            jukebox_speedup=speedup(base.cycles, jb.cycles),
            perfect_speedup=speedup(base.cycles, pf.cycles),
        ))
    return result


def render(result: Fig10Result) -> str:
    rows = [[e.abbrev, e.baseline_cpi,
             f"{e.jukebox_speedup * 100:+.1f}%",
             f"{e.perfect_speedup * 100:+.1f}%"] for e in result.entries]
    rows.append(["GEOMEAN", "",
                 f"{result.jukebox_geomean * 100:+.1f}%",
                 f"{result.perfect_geomean * 100:+.1f}%"])
    table = format_table(
        ["Function", "baseline CPI", "Jukebox", "Perfect I-cache"], rows,
        title="Figure 10: speedup over the lukewarm baseline (Skylake-like)")
    r = result.correlation()
    r_text = "n/a" if math.isnan(r) else f"{r:.2f}"
    summary = (f"Jukebox geomean {result.jukebox_geomean * 100:+.1f}% "
               f"(paper: +18.7%); perfect I$ {result.perfect_geomean * 100:+.1f}% "
               f"(paper: +31%); correlation r={r_text}")
    return f"{table}\n\n{summary}"

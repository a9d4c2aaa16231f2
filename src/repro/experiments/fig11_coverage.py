"""Figure 11: L2 instruction-miss coverage and overprediction.

Protocol (Sec. 5.3): fractions of the *baseline's* L2 instruction misses
that Jukebox covers, leaves uncovered, or overpredicts (prefetched but
never referenced).  Paper headlines: Go functions reach 75-90% coverage
(their metadata fits the 16KB budget); Python/NodeJS reach 48-74%; the
overprediction rate averages ~10% (max 15.8%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.engine import sweep_configs
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams, skylake
from repro.workloads.profiles import LANG_GO
from repro.workloads.suite import suite_subset

#: Registry configs this experiment sweeps per function.
SWEEP_CONFIGS = ("baseline", "jukebox")


@dataclass
class Fig11Entry:
    abbrev: str
    language: str
    baseline_l2_misses: float
    covered: float
    overpredicted: float
    metadata_truncated: bool

    @property
    def covered_fraction(self) -> float:
        if self.baseline_l2_misses <= 0:
            return 0.0
        return min(1.0, self.covered / self.baseline_l2_misses)

    @property
    def uncovered_fraction(self) -> float:
        return max(0.0, 1.0 - self.covered_fraction)

    @property
    def overpredicted_fraction(self) -> float:
        if self.baseline_l2_misses <= 0:
            return 0.0
        return self.overpredicted / self.baseline_l2_misses


@dataclass
class Fig11Result:
    entries: List[Fig11Entry] = field(default_factory=list)

    def mean_coverage(self, language: Optional[str] = None) -> float:
        entries = [e for e in self.entries
                   if language is None or e.language == language]
        if not entries:
            return 0.0
        return sum(e.covered_fraction for e in entries) / len(entries)

    @property
    def mean_overprediction(self) -> float:
        return (sum(e.overpredicted_fraction for e in self.entries)
                / len(self.entries))

    @property
    def max_overprediction(self) -> float:
        return max(e.overpredicted_fraction for e in self.entries)


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None) -> Fig11Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    result = Fig11Result()
    profiles = suite_subset(list(functions) if functions else None)
    runs = sweep_configs(profiles, machine, cfg, SWEEP_CONFIGS)
    for profile in profiles:
        base = runs[profile.abbrev]["baseline"]
        jb = runs[profile.abbrev]["jukebox"]
        n = max(1, len(jb.jukebox_reports))
        covered = sum(r.replay.covered for r in jb.jukebox_reports) / n
        over = sum(r.replay.overpredicted for r in jb.jukebox_reports) / n
        truncated = any(r.recorded_dropped > 0 for r in jb.jukebox_reports)
        base_misses = base.results and (
            sum(r.stats.l2.inst_misses for r in base.results)
            / len(base.results)) or 0.0
        result.entries.append(Fig11Entry(
            abbrev=profile.abbrev,
            language=profile.language,
            baseline_l2_misses=base_misses,
            covered=covered,
            overpredicted=over,
            metadata_truncated=truncated,
        ))
    return result


def render(result: Fig11Result) -> str:
    rows = [[e.abbrev,
             f"{e.covered_fraction * 100:.0f}%",
             f"{e.uncovered_fraction * 100:.0f}%",
             f"{e.overpredicted_fraction * 100:.0f}%",
             "yes" if e.metadata_truncated else "no"] for e in result.entries]
    rows.append(["MEAN",
                 f"{result.mean_coverage() * 100:.0f}%", "",
                 f"{result.mean_overprediction * 100:.0f}%", ""])
    table = format_table(
        ["Function", "covered", "uncovered", "overpredicted", "truncated"],
        rows,
        title=("Figure 11: L2 instruction-miss coverage "
               "(normalized to baseline L2 misses)"))
    go_cov = result.mean_coverage(LANG_GO) * 100
    other = [e for e in result.entries if e.language != LANG_GO]
    other_cov = (sum(e.covered_fraction for e in other) / len(other) * 100
                 if other else 0.0)
    summary = (f"Go coverage {go_cov:.0f}% vs. Python/NodeJS {other_cov:.0f}% "
               f"(paper: 75-90% vs. 48-74%); overprediction mean "
               f"{result.mean_overprediction * 100:.0f}% "
               f"max {result.max_overprediction * 100:.0f}% "
               f"(paper: ~10% / 15.8%)")
    return f"{table}\n\n{summary}"

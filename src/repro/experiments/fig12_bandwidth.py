"""Figure 12: Jukebox's memory-bandwidth overhead.

Protocol (Sec. 5.4): total DRAM traffic of the Jukebox configuration
normalized to the baseline.  Correct timely prefetches replace demand
fetches one-for-one, so the overhead consists of overpredicted prefetch
lines plus metadata record/replay traffic.  Paper headlines: +14% average
(+23% worst case), composed of ~40% metadata and ~60% overprediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.engine import sweep_configs
from repro.experiments.scale import RunConfig
from repro.sim.params import MachineParams, skylake
from repro.sim.stats import MemoryTraffic
from repro.workloads.suite import suite_subset

#: Registry configs this experiment sweeps per function.
SWEEP_CONFIGS = ("baseline", "jukebox")


@dataclass
class Fig12Entry:
    abbrev: str
    baseline_bytes: float
    overpredicted_bytes: float
    metadata_record_bytes: float
    metadata_replay_bytes: float

    @property
    def overhead_bytes(self) -> float:
        return (self.overpredicted_bytes + self.metadata_record_bytes
                + self.metadata_replay_bytes)

    @property
    def overhead_fraction(self) -> float:
        if self.baseline_bytes <= 0:
            return 0.0
        return self.overhead_bytes / self.baseline_bytes

    @property
    def metadata_share(self) -> float:
        """Fraction of overhead due to metadata traffic (paper: ~40%)."""
        total = self.overhead_bytes
        if total <= 0:
            return 0.0
        return (self.metadata_record_bytes + self.metadata_replay_bytes) / total


@dataclass
class Fig12Result:
    entries: List[Fig12Entry] = field(default_factory=list)

    @property
    def mean_overhead(self) -> float:
        return (sum(e.overhead_fraction for e in self.entries)
                / len(self.entries))

    @property
    def max_overhead(self) -> float:
        return max(e.overhead_fraction for e in self.entries)

    @property
    def mean_metadata_share(self) -> float:
        shares = [e.metadata_share for e in self.entries if e.overhead_bytes > 0]
        return sum(shares) / len(shares) if shares else 0.0


def _sum_traffic(results) -> MemoryTraffic:
    total = MemoryTraffic()
    for r in results:
        t = r.stats.memory
        total.demand_inst += t.demand_inst
        total.demand_data += t.demand_data
        total.prefetch_useful += t.prefetch_useful
        total.prefetch_overpredicted += t.prefetch_overpredicted
        total.metadata_record += t.metadata_record
        total.metadata_replay += t.metadata_replay
    return total


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None) -> Fig12Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    result = Fig12Result()
    profiles = suite_subset(list(functions) if functions else None)
    runs = sweep_configs(profiles, machine, cfg, SWEEP_CONFIGS)
    for profile in profiles:
        base = runs[profile.abbrev]["baseline"]
        jb = runs[profile.abbrev]["jukebox"]
        base_traffic = _sum_traffic(base.results)
        jb_traffic = _sum_traffic(jb.results)
        # Replay traffic (prefetch fills, metadata reads) is charged at
        # invocation start, before the measured InvocationResult delta is
        # opened; recover it from the per-invocation Jukebox reports.
        prefetched_lines = sum(r.replay.lines_prefetched
                               for r in jb.jukebox_reports)
        overpredicted_lines = sum(r.replay.overpredicted
                                  for r in jb.jukebox_reports)
        replay_meta = sum(r.replay.metadata_bytes_read
                          for r in jb.jukebox_reports)
        record_meta = sum(r.recorded_bytes for r in jb.jukebox_reports)
        result.entries.append(Fig12Entry(
            abbrev=profile.abbrev,
            baseline_bytes=float(base_traffic.demand_inst
                                 + base_traffic.demand_data),
            overpredicted_bytes=overpredicted_lines * 64.0,
            metadata_record_bytes=float(record_meta),
            metadata_replay_bytes=float(replay_meta),
        ))
    return result


def render(result: Fig12Result) -> str:
    rows = []
    for e in result.entries:
        base = e.baseline_bytes or 1.0
        rows.append([
            e.abbrev,
            f"{e.overpredicted_bytes / base * 100:.1f}%",
            f"{e.metadata_record_bytes / base * 100:.1f}%",
            f"{e.metadata_replay_bytes / base * 100:.1f}%",
            f"{e.overhead_fraction * 100:.1f}%",
        ])
    rows.append(["MEAN", "", "", "", f"{result.mean_overhead * 100:.1f}%"])
    table = format_table(
        ["Function", "overpredicted", "meta record", "meta replay", "total"],
        rows,
        title="Figure 12: memory-bandwidth overhead vs. baseline traffic")
    summary = (f"Mean overhead {result.mean_overhead * 100:.1f}% "
               f"(paper: 14%), worst case {result.max_overhead * 100:.1f}% "
               f"(paper: 23%); metadata share of overhead "
               f"{result.mean_metadata_share * 100:.0f}% (paper: ~40%)")
    return f"{table}\n\n{summary}"

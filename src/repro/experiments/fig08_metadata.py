"""Figure 8: sensitivity of Jukebox's metadata size to the code region size.

Protocol (Sec. 5.1): record the L2 instruction-miss stream of a lukewarm
invocation through the Jukebox record logic for region sizes from 128B to
8KB and CRRB sizes of 8/16/32 entries, measuring the *unbounded* metadata
needed to hold every produced entry.  Paper headline: the metadata size is
minimized around a 1KB region size, landing between ~9.6KB and ~29.5KB
across the suite, with modest sensitivity to the CRRB size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.core.recorder import record_miss_stream
from repro.engine import Job, sweep
from repro.experiments.common import RunConfig, make_traces, register_config
from repro.sim.core import Simulator
from repro.sim.params import JukeboxParams, MachineParams, skylake
from repro.units import KB
from repro.workloads.suite import suite_subset

DEFAULT_REGION_SIZES = (128, 256, 512, 1 * KB, 2 * KB, 4 * KB, 8 * KB)
DEFAULT_CRRB_SIZES = (8, 16, 32)

#: Registry configs this experiment sweeps (the region/CRRB grid is then
#: replayed over each recorded stream in-process -- it is pure and cheap).
SWEEP_CONFIGS = ("miss_stream",)


class _MissCollector:
    """Record hook that captures the L2 instruction-miss address stream."""

    def __init__(self) -> None:
        self.misses: List[int] = []

    def on_l2_inst_miss(self, vaddr: int, cycle: float) -> None:
        self.misses.append(vaddr)

    #: on_fetch is a no-op and on_l2_inst_miss ignores ``cycle``, so the
    #: columnar backend keeps its bulk walks while collecting misses (see
    #: RecordHook docs).
    fetch_is_noop = True

    def on_fetch(self, vaddr: int, cycle: float) -> None:
        pass


@register_config("miss_stream")
def collect_miss_stream(profile, machine: MachineParams,
                        cfg: RunConfig) -> List[int]:
    """The L2-I miss stream of one lukewarm invocation."""
    sim = Simulator(machine, backend=cfg.backend)
    traces = make_traces(profile, cfg)
    collector = _MissCollector()
    for i, trace in enumerate(traces[: cfg.warmup + 1]):
        sim.flush_microarch_state()
        if i == cfg.warmup:
            sim.hierarchy.record_hook = collector
        sim.run(trace)
    sim.hierarchy.record_hook = None
    return collector.misses


@dataclass
class Fig8Result:
    region_sizes: List[int]
    crrb_sizes: List[int]
    #: (abbrev, crrb_entries, region_size) -> metadata bytes.
    metadata_bytes: Dict = field(default_factory=dict)
    functions: List[str] = field(default_factory=list)

    def best_region_size(self, abbrev: str, crrb: int = 16) -> int:
        return min(self.region_sizes,
                   key=lambda rs: self.metadata_bytes[(abbrev, crrb, rs)])


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Optional[Sequence[str]] = None,
        region_sizes: Sequence[int] = DEFAULT_REGION_SIZES,
        crrb_sizes: Sequence[int] = DEFAULT_CRRB_SIZES) -> Fig8Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    result = Fig8Result(region_sizes=list(region_sizes),
                        crrb_sizes=list(crrb_sizes))
    profiles = suite_subset(list(functions) if functions else None)
    jobs = [Job.make(p, machine, cfg, "miss_stream", provider=__name__)
            for p in profiles]
    for profile, stream in zip(profiles, sweep(jobs)):
        result.functions.append(profile.abbrev)
        for crrb in crrb_sizes:
            for region_size in region_sizes:
                params = JukeboxParams(crrb_entries=crrb,
                                       region_size=region_size,
                                       metadata_bytes=machine.jukebox.metadata_bytes)
                buffer = record_miss_stream(stream, params)
                result.metadata_bytes[(profile.abbrev, crrb, region_size)] = \
                    buffer.size_bytes
    return result


def render(result: Fig8Result, crrb: int = 16) -> str:
    headers = ["Function"] + [_size_label(rs) for rs in result.region_sizes]
    rows = []
    for abbrev in result.functions:
        row: List[object] = [abbrev]
        for rs in result.region_sizes:
            row.append(f"{result.metadata_bytes[(abbrev, crrb, rs)] / KB:.1f}K")
        rows.append(row)
    return format_table(
        headers, rows,
        title=(f"Figure 8: metadata size vs. code region size "
               f"(CRRB = {crrb} entries)"))


def _size_label(nbytes: int) -> str:
    if nbytes >= KB:
        return f"{nbytes // KB}K"
    return str(nbytes)

"""Table 1: parameters of the simulated processor.

Not a measurement -- this regenerates the configuration table from the
actual :class:`~repro.sim.params.MachineParams` instance the evaluation
experiments use, so any drift between documentation and simulation is
impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.report import format_table
from repro.sim.params import MachineParams, skylake
from repro.units import KB

#: No simulation cells: the table is read straight off MachineParams.
SWEEP_CONFIGS = ()


@dataclass
class Table1Result:
    rows: List[Tuple[str, str]]


def run(cfg=None, machine: Optional[MachineParams] = None,
        functions=None) -> Table1Result:
    m = machine if machine is not None else skylake()
    core, mem, jb = m.core, m.memory, m.jukebox
    rows: List[Tuple[str, str]] = [
        ("Architecture", f"{m.name}-like, ISA: x86-64, "
                         f"Freq.: {core.freq_ghz}GHz"),
        ("Fetch BW", f"{core.fetch_bytes_per_cycle} bytes / cycle"),
        ("BP Unit", f"gShare {core.gshare_entries // 1024}K + bimodal "
                    f"{core.bimodal_entries // 1024}K + BTB "
                    f"{core.btb_entries // 1024}K entries"),
        ("ROB", f"{core.rob_entries} entries"),
        ("Issue width", str(core.issue_width)),
        ("L1-I Cache", _cache_row(m.l1i)),
        ("L1-D Cache", _cache_row(m.l1d) + ", next-line prefetcher"),
        ("L2 Cache", _cache_row(m.l2)),
        ("LLC", _cache_row(m.llc) + ", shared, non-inclusive"),
        ("I-TLB", f"{m.itlb.entries} entries, {m.itlb.assoc}-way"),
        ("D-TLB", f"{m.dtlb.entries} entries, {m.dtlb.assoc}-way"),
        ("Memory", f"DDR4, {mem.latency}-cycle random / "
                   f"{mem.row_hit_latency}-cycle streamed, "
                   f"{mem.bytes_per_cycle:.1f} B/cycle"),
        ("Jukebox", f"CRRB: {jb.crrb_entries} entries, Region size: "
                    f"{jb.region_size // KB}KB, {2 * jb.metadata_bytes // KB}KB "
                    f"metadata ({jb.metadata_bytes // KB}KB record + "
                    f"{jb.metadata_bytes // KB}KB replay)"),
    ]
    return Table1Result(rows=rows)


def _cache_row(c) -> str:
    return (f"{c.size // KB}KB, {c.line_size}B line, {c.assoc}-way, "
            f"{c.latency}-cycle, {c.mshrs} MSHRs, LRU")


def render(result: Table1Result) -> str:
    return format_table(
        ["Component", "Configuration"], result.rows,
        title="Table 1: parameters of the simulated processor")

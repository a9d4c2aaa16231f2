"""Figure 1: effect of request inter-arrival time on CPI.

Protocol (Sec. 2.2): a function-under-test runs on a high-occupancy server
(~50% CPU load from other warm instances).  Its invocation IAT is fixed per
experiment; between invocations the co-tenants progressively evict its
microarchitectural state (graded LLC decay; private state thrashes within
milliseconds) and during execution its DRAM accesses queue behind tenant
traffic.  CPI is reported normalized to back-to-back invocations.

The paper plots Auth-Python and AES-NodeJS: the CPI grows with IAT and
saturates at roughly 2.7x / 2.5x beyond a one-second IAT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.engine import Job, sweep
from repro.experiments.common import (
    RunConfig,
    SequenceResult,
    make_traces,
    register_config,
)
from repro.server.stressor import Stressor
from repro.sim.core import Simulator
from repro.sim.params import MachineParams, broadwell
from repro.workloads.suite import get_profile

#: The paper's x-axis points, in milliseconds (0 = back-to-back).
DEFAULT_IATS_MS = (0.0, 10.0, 100.0, 1000.0, 10000.0)
DEFAULT_FUNCTIONS = ("Auth-P", "AES-N")
DEFAULT_LOAD = 0.5

#: Registry configs this experiment sweeps (one cell per (function, IAT)).
SWEEP_CONFIGS = ("contended",)


@register_config("contended")
def _build_contended(profile, machine: MachineParams, cfg: RunConfig,
                     iat_ms: float = 0.0,
                     load: float = DEFAULT_LOAD) -> SequenceResult:
    """One (function, IAT) cell: invocations on a high-occupancy server.

    With ``iat_ms > 0`` the co-tenant stressor decays the function's
    microarchitectural state during the idle gap and queues its DRAM
    accesses behind tenant traffic; ``iat_ms == 0`` is the back-to-back
    anchor.
    """
    stressor = Stressor(load=load, seed=cfg.seed)
    sim = Simulator(machine, backend=cfg.backend)
    measured = []
    for i, trace in enumerate(make_traces(profile, cfg)):
        if iat_ms > 0:
            stressor.idle_gap(sim, iat_ms)
            stressor.apply_contention(sim)
        else:
            stressor.clear_contention(sim)
        result = sim.run(trace)
        if i >= cfg.warmup:
            measured.append(result)
    return SequenceResult(results=measured)


@dataclass
class Fig1Result:
    """Normalized CPI per function per IAT point."""

    iats_ms: List[float]
    load: float
    #: function abbrev -> list of normalized CPI (same order as iats_ms).
    normalized_cpi: Dict[str, List[float]] = field(default_factory=dict)
    baseline_cpi: Dict[str, float] = field(default_factory=dict)


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Sequence[str] = DEFAULT_FUNCTIONS,
        iats_ms: Sequence[float] = DEFAULT_IATS_MS,
        load: float = DEFAULT_LOAD) -> Fig1Result:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else broadwell()
    result = Fig1Result(iats_ms=list(iats_ms), load=load)

    jobs = [Job.make(get_profile(abbrev), machine, cfg, "contended",
                     provider=__name__, iat_ms=float(iat), load=load)
            for abbrev in functions for iat in iats_ms]
    flat = iter(sweep(jobs))
    for abbrev in functions:
        series: List[float] = []
        back_to_back: Optional[float] = None
        for _ in iats_ms:
            cpi = next(flat).cpi
            if back_to_back is None:
                back_to_back = cpi  # the iat=0 point anchors normalization
            series.append(cpi / back_to_back)
        result.normalized_cpi[abbrev] = series
        result.baseline_cpi[abbrev] = back_to_back if back_to_back else 0.0
    return result


def render(result: Fig1Result) -> str:
    headers = ["IAT [ms]"] + [f"{fn} [norm. CPI]" for fn in result.normalized_cpi]
    rows = []
    for i, iat in enumerate(result.iats_ms):
        row: List[object] = [int(iat)]
        for series in result.normalized_cpi.values():
            row.append(f"{series[i] * 100:.0f}%")
        rows.append(row)
    return format_table(
        headers, rows,
        title=(f"Figure 1: CPI vs. inter-arrival time at {result.load:.0%} "
               f"server load (normalized to back-to-back)"),
    )

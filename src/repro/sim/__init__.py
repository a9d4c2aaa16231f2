"""Simulation substrate: caches, TLBs, DRAM, branch prediction and the
analytic core timing model (the gem5 stand-in, DESIGN.md Sec. 1)."""

from repro.sim.cache import SetAssocCache
from repro.sim.core import BACKENDS, InvocationResult, Simulator
from repro.sim.hierarchy import FillQueue, MemoryHierarchy
from repro.sim.params import (
    BROADWELL,
    SKYLAKE,
    CacheParams,
    CoreParams,
    JukeboxParams,
    MachineParams,
    MemoryParams,
    MODE_CHARACTERIZATION,
    MODE_EVALUATION,
    TLBParams,
    broadwell,
    skylake,
)
from repro.sim.simulate import simulate
from repro.sim.stats import AccessStats, HierarchyStats, MemoryTraffic
from repro.sim.topdown import TopDownBreakdown, mean_breakdown

__all__ = [
    "AccessStats",
    "BACKENDS",
    "BROADWELL",
    "CacheParams",
    "CoreParams",
    "FillQueue",
    "HierarchyStats",
    "InvocationResult",
    "JukeboxParams",
    "MachineParams",
    "MemoryParams",
    "MemoryTraffic",
    "MemoryHierarchy",
    "MODE_CHARACTERIZATION",
    "MODE_EVALUATION",
    "SKYLAKE",
    "SetAssocCache",
    "Simulator",
    "TLBParams",
    "TopDownBreakdown",
    "broadwell",
    "mean_breakdown",
    "simulate",
    "skylake",
]

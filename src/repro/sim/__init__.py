"""Simulation substrate: caches, TLBs, DRAM, branch prediction and the
analytic core timing model (the gem5 stand-in, DESIGN.md Sec. 1).

Names resolve lazily from the modules in :data:`_EXPORTS`, so importing a
light submodule (``repro.sim.params``, ``repro.sim.result``) does not load
the simulator or numpy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AccessStats": "repro.sim.stats",
    "BACKENDS": "repro.sim.result",
    "BROADWELL": "repro.sim.params",
    "CacheParams": "repro.sim.params",
    "CoreParams": "repro.sim.params",
    "FillQueue": "repro.sim.hierarchy",
    "HierarchyStats": "repro.sim.stats",
    "InvocationResult": "repro.sim.result",
    "JukeboxParams": "repro.sim.params",
    "MachineParams": "repro.sim.params",
    "MemoryParams": "repro.sim.params",
    "MemoryTraffic": "repro.sim.stats",
    "MemoryHierarchy": "repro.sim.hierarchy",
    "MODE_CHARACTERIZATION": "repro.sim.params",
    "MODE_EVALUATION": "repro.sim.params",
    "SKYLAKE": "repro.sim.params",
    "SetAssocCache": "repro.sim.cache",
    "Simulator": "repro.sim.core",
    "TLBParams": "repro.sim.params",
    "TopDownBreakdown": "repro.sim.topdown",
    "broadwell": "repro.sim.params",
    "mean_breakdown": "repro.sim.topdown",
    "simulate": "repro.sim.core",
    "skylake": "repro.sim.params",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

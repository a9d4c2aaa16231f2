"""Reproduction of *Lukewarm Serverless Functions: Characterization and
Optimization* (Schall et al., ISCA 2022).

Public API layers:

* :mod:`repro.core` -- Jukebox, the paper's record-and-replay instruction
  prefetcher, plus the PIF baseline;
* :mod:`repro.sim` -- the trace-driven CPU / memory-hierarchy simulation
  substrate (the gem5 stand-in);
* :mod:`repro.workloads` -- the 20-function serverless workload suite
  (Table 2) as calibrated synthetic trace generators;
* :mod:`repro.server` -- server-level interleaving under arrival
  processes and a fixed keep-alive;
* :mod:`repro.analysis` -- metrics (CPI, MPKI, Jaccard, speedups) and
  report rendering;
* :mod:`repro.experiments` -- one module per paper table/figure.

Quickstart::

    from repro import Jukebox, Simulator, skylake
    from repro.workloads import FunctionModel, get_profile

    sim = Simulator(skylake())                # columnar backend by default
    model = FunctionModel(get_profile("Auth-G"))
    jukebox = Jukebox(sim.machine.jukebox)
    for i in range(3):
        sim.flush_microarch_state()           # lukewarm invocation
        jukebox.begin_invocation(sim.hierarchy)
        result = sim.run(model.invocation_trace(i))
        jukebox.end_invocation(sim.hierarchy, result)
        print(f"invocation {i}: CPI={result.cpi:.2f}")

A one-shot cold run is ``Simulator(skylake()).run(trace)``; hand-written
traces come from :class:`repro.workloads.TraceBuilder`.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Each public name and the module defining it; resolved on first access,
#: so ``import repro`` alone loads neither the simulator nor numpy.
_EXPORTS = {
    "BACKENDS": "repro.sim.result",
    "ConfigurationError": "repro.errors",
    "ContractViolationError": "repro.errors",
    "FunctionModel": "repro.workloads.function",
    "FunctionProfile": "repro.workloads.profiles",
    "InvocationResult": "repro.sim.result",
    "Jukebox": "repro.core.jukebox",
    "JukeboxParams": "repro.sim.params",
    "MachineParams": "repro.sim.params",
    "MemoryHierarchy": "repro.sim.hierarchy",
    "PIF": "repro.core.pif",
    "PIFParams": "repro.core.pif",
    "ReproError": "repro.errors",
    "SUITE": "repro.workloads.suite",
    "SimulationError": "repro.errors",
    "Simulator": "repro.sim.core",
    "TopDownBreakdown": "repro.sim.topdown",
    "TraceBuilder": "repro.workloads.trace",
    "TraceError": "repro.errors",
    "broadwell": "repro.sim.params",
    "get_profile": "repro.workloads.suite",
    "pif_ideal_params": "repro.core.pif",
    "skylake": "repro.sim.params",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

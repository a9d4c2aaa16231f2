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

    from repro import Jukebox, Simulator, simulate, skylake
    from repro.workloads import FunctionModel, get_profile

    sim = Simulator(skylake())                # columnar backend by default
    model = FunctionModel(get_profile("Auth-G"))
    jukebox = Jukebox(sim.machine.jukebox)
    for i in range(3):
        sim.flush_microarch_state()           # lukewarm invocation
        jukebox.begin_invocation(sim.hierarchy)
        result = simulate(model.invocation_trace(i), sim=sim)
        jukebox.end_invocation(sim.hierarchy, result)
        print(f"invocation {i}: CPI={result.cpi:.2f}")

One-shot cold runs need no simulator at all --
``simulate(trace, skylake())`` builds one; hand-written traces come from
:class:`repro.workloads.TraceBuilder`.
"""

from repro.core import Jukebox, PIF, PIFParams, pif_ideal_params
from repro.errors import (
    ConfigurationError,
    ContractViolationError,
    MetadataError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.sim import (
    BACKENDS,
    BROADWELL,
    SKYLAKE,
    InvocationResult,
    JukeboxParams,
    MachineParams,
    MemoryHierarchy,
    Simulator,
    TopDownBreakdown,
    broadwell,
    simulate,
    skylake,
)
from repro.workloads import (
    FunctionModel,
    FunctionProfile,
    SUITE,
    TraceBuilder,
    get_profile,
)

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "BROADWELL",
    "ConfigurationError",
    "ContractViolationError",
    "FunctionModel",
    "FunctionProfile",
    "InvocationResult",
    "Jukebox",
    "JukeboxParams",
    "MachineParams",
    "MemoryHierarchy",
    "MetadataError",
    "PIF",
    "PIFParams",
    "ReproError",
    "SKYLAKE",
    "SUITE",
    "SimulationError",
    "Simulator",
    "TopDownBreakdown",
    "TraceBuilder",
    "TraceError",
    "broadwell",
    "get_profile",
    "pif_ideal_params",
    "simulate",
    "skylake",
    "__version__",
]

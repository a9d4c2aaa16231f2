"""Cold-start cost models: the cold end of the cold→lukewarm→warm axis.

The paper characterizes the *lukewarm* point -- warm instances whose
microarchitectural state was evicted by interleaving co-tenants.  This
package supplies the missing cold end so experiments can sweep the full
invocation-frequency spectrum:

* :mod:`repro.coldstart.pages` -- REAP-style page-granular snapshot
  restore: the first restore demand-faults the working set and records
  its page trace; later restores bulk-prefetch the recorded stable set.
* :mod:`repro.coldstart.libinit` -- ColdSpy-style library-initialization
  cost: a per-runtime import graph with eager-used / eager-unused / lazy
  libraries, exposed as an init-trimming knob.
* :mod:`repro.coldstart.model` -- the :class:`ColdStartModel` protocol
  the server and fleet simulators charge cold invocations through, with
  a constant-penalty implementation byte-identical to the legacy scalar
  ``cold_start_penalty_ms`` path and a spectrum implementation composing
  pages + init.
"""

from repro.coldstart.libinit import (ImportGraph, Library, import_graph_for)
from repro.coldstart.model import (COLDSTART_KINDS, ColdStartCharge,
                                   ColdStartModel, ColdStartSpec,
                                   ConstantColdStart, SnapshotState,
                                   SpectrumColdStart, make_coldstart_model)
from repro.coldstart.pages import (PAGE_BYTES, PageReplayState, RestoreCharge,
                                   RestoreParams, working_set_pages)

__all__ = [
    "COLDSTART_KINDS",
    "ColdStartCharge",
    "ColdStartModel",
    "ColdStartSpec",
    "ConstantColdStart",
    "ImportGraph",
    "Library",
    "PAGE_BYTES",
    "PageReplayState",
    "RestoreCharge",
    "RestoreParams",
    "SnapshotState",
    "SpectrumColdStart",
    "import_graph_for",
    "make_coldstart_model",
    "working_set_pages",
]

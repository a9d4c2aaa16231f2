"""Cold-start cost models: the cold end of the cold→lukewarm→warm axis.

The paper characterizes the *lukewarm* point -- warm instances whose
microarchitectural state was evicted by interleaving co-tenants.  This
package supplies the missing cold end so experiments can sweep the full
invocation-frequency spectrum:

* :mod:`repro.coldstart.pages` -- REAP-style page-granular snapshot
  restore: the first restore demand-faults the working set and records
  its page trace; later restores bulk-prefetch the recorded stable set.
* :mod:`repro.coldstart.libinit` -- ColdSpy-style library-initialization
  cost: a per-runtime import graph with eager-used / eager-unused
  libraries, exposed as an init-trimming knob.
* :mod:`repro.coldstart.model` -- the :class:`ColdStartModel` protocol
  and :class:`SpectrumColdStart`, which composes pages + init for the
  cold cells of ``lukewarm-repro spectrum``.  The server and fleet
  simulators charge a scalar cold-start penalty instead.
"""

from repro.coldstart.libinit import (ImportGraph, Library, import_graph_for)
from repro.coldstart.model import (ColdStartCharge, ColdStartModel,
                                   SnapshotState, SpectrumColdStart)
from repro.coldstart.pages import (PAGE_BYTES, PageReplayState, RestoreCharge,
                                   working_set_pages)

__all__ = [
    "ColdStartCharge",
    "ColdStartModel",
    "ImportGraph",
    "Library",
    "PAGE_BYTES",
    "PageReplayState",
    "RestoreCharge",
    "SnapshotState",
    "SpectrumColdStart",
    "import_graph_for",
    "working_set_pages",
]

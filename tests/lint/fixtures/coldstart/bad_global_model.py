"""REPRO008 positive: module-level cold-start model singletons.

A spectrum model's recorded page traces are per-simulation state; built
at import time they would leak one run's working set into the next.
"""

from repro.coldstart import PageReplayState, SnapshotState, SpectrumColdStart
from repro.workloads.suite import SUITE

MODEL = SpectrumColdStart(SUITE[0], page_replay=True)
PAGES: PageReplayState = PageReplayState(pages=4096)
DEFAULT = SnapshotState(PAGES)

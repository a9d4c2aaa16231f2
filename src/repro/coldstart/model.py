"""The :class:`ColdStartModel` protocol and its spectrum implementation.

:class:`SpectrumColdStart` decomposes a cold boot into library
initialization (ColdSpy, :mod:`repro.coldstart.libinit`) plus
page-granular snapshot restore (REAP, :mod:`repro.coldstart.pages`);
``lukewarm-repro spectrum`` charges its cold cells through it.  The
server simulator charges a scalar ``ServerConfig.cold_start_ms``
instead.

:class:`SnapshotState` is one instance's snapshot: its page
record/replay state.  The instruction side of a restore needs no state
here -- the spectrum's cold cells replay Jukebox metadata through the
same lukewarm sequence as every other cell.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.coldstart.libinit import import_graph_for
from repro.coldstart.pages import (PageReplayState, RestoreCharge,
                                   working_set_pages)
from repro.workloads.profiles import FunctionProfile


@dataclass(frozen=True)
class ColdStartCharge:
    """Latency charged to one cold-started invocation, decomposed."""

    #: Library / runtime initialization (ColdSpy axis).
    init_ms: float = 0.0
    #: Page faults materializing the snapshot working set (REAP axis).
    page_ms: float = 0.0
    faulted_pages: int = 0
    prefetched_pages: int = 0
    #: True when this charge's restore recorded the page trace.
    recorded: bool = False


class ColdStartModel(ABC):
    """Charges the cold starts of one instance; built per simulation.

    Implementations are deterministic state machines: the charge for
    the N-th cold start is a pure function of the model's knobs, the
    profile it was built for, and N.  No wall clock, no RNG.
    """

    @abstractmethod
    def cold_start(self) -> ColdStartCharge:
        """Charge one cold start."""


class SnapshotState:
    """One instance's snapshot: its page record/replay state.

    :class:`PageReplayState` records the page-fault working set on the
    first restore and replays it on later ones.
    """

    def __init__(self, pages: PageReplayState) -> None:
        self.pages = pages

    def restore_pages(self) -> RestoreCharge:
        """Charge the data-side restore (record or replay)."""
        return self.pages.restore()


class SpectrumColdStart(ColdStartModel):
    """Library init + page restore of one function, per two knobs.

    ``page_replay`` turns REAP record/replay on restore on (off: every
    restore demand-faults the full working set); ``init_trim`` trims
    eagerly-imported unused libraries (ColdSpy).  The
    :class:`~repro.workloads.profiles.FunctionProfile` sizes the
    snapshot's working set and selects its runtime's import graph.
    """

    def __init__(self, profile: FunctionProfile, page_replay: bool = True,
                 init_trim: bool = False) -> None:
        self.snapshot = SnapshotState(PageReplayState(
            pages=working_set_pages(profile), replay=page_replay))
        self.init_ms = import_graph_for(profile.language).init_cost_ms(
            trim=init_trim)

    def cold_start(self) -> ColdStartCharge:
        restore = self.snapshot.restore_pages()
        return ColdStartCharge(
            init_ms=self.init_ms,
            page_ms=restore.page_ms,
            faulted_pages=restore.faulted_pages,
            prefetched_pages=restore.prefetched_pages,
            recorded=restore.recorded,
        )

"""The :class:`ColdStartModel` protocol and its two implementations.

The server simulator charges every cold-started invocation through a
model rather than a scalar: :class:`ConstantColdStart` reproduces the
legacy ``cold_start_penalty_ms`` arithmetic byte-for-byte (the
differential battery pins this), and :class:`SpectrumColdStart`
decomposes the cold boot into library initialization (ColdSpy,
:mod:`repro.coldstart.libinit`) plus page-granular snapshot restore
(REAP, :mod:`repro.coldstart.pages`).

:class:`SnapshotState` is the per-instance composition point with the
paper's instruction-side replayer: it pairs the data-side page
record/replay state with the Jukebox metadata image of
:mod:`repro.core.snapshot`, so a restored instance replays *both* its
page working set and its instruction working set.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.coldstart.libinit import import_graph_for
from repro.coldstart.pages import (PageReplayState, RestoreCharge,
                                   RestoreParams, working_set_pages)
from repro.core.jukebox import Jukebox
from repro.core.snapshot import MetadataSnapshot, restore_jukebox, \
    snapshot_jukebox
from repro.errors import ConfigurationError
from repro.sim.params import JukeboxParams
from repro.workloads.profiles import FunctionProfile

#: Model kinds accepted by :class:`ColdStartSpec` / fleet configs.
COLDSTART_KINDS = ("constant", "spectrum")


@dataclass(frozen=True)
class ColdStartCharge:
    """Latency charged to one cold-started invocation, decomposed."""

    #: Library / runtime initialization (ColdSpy axis).
    init_ms: float = 0.0
    #: Page faults materializing the snapshot working set (REAP axis).
    page_ms: float = 0.0
    #: Undecomposed cost (the constant model books everything here).
    other_ms: float = 0.0
    faulted_pages: int = 0
    prefetched_pages: int = 0
    #: True when this charge's restore recorded the page trace.
    recorded: bool = False

    @property
    def total_ms(self) -> float:
        return self.init_ms + self.page_ms + self.other_ms


@dataclass(frozen=True)
class ColdStartSpec:
    """Declarative, content-addressable cold-start model selection.

    A frozen dataclass (canonicalizable into engine job keys) that
    :func:`make_coldstart_model` turns into a stateful model instance
    per simulator -- never construct models at module scope (REPRO008).
    """

    kind: str = "constant"
    #: Penalty of the constant model; ignored by ``spectrum``.
    constant_ms: float = 0.0
    #: Spectrum knob: REAP record/replay on restore (off = every
    #: restore demand-faults the full working set).
    page_replay: bool = True
    #: Spectrum knob: trim eagerly-imported unused libraries (ColdSpy).
    init_trim: bool = False
    restore: RestoreParams = field(default_factory=RestoreParams)

    def __post_init__(self) -> None:
        if self.kind not in COLDSTART_KINDS:
            raise ConfigurationError(
                f"unknown cold-start model {self.kind!r}; expected one "
                f"of {', '.join(COLDSTART_KINDS)}")
        if not math.isfinite(self.constant_ms) or self.constant_ms < 0:
            raise ConfigurationError(
                f"constant_ms must be finite and >= 0, got "
                f"{self.constant_ms}")


class ColdStartModel(ABC):
    """Charges cold-started invocations; one instance per simulator.

    Implementations are deterministic state machines: the charge for
    the N-th cold start of a given instance is a pure function of the
    spec, the profile, and N.  No wall clock, no RNG.
    """

    @abstractmethod
    def cold_start(self, instance_id: str,
                   profile: Optional[FunctionProfile] = None
                   ) -> ColdStartCharge:
        """Charge one cold start of ``instance_id``."""

    def reset(self) -> None:
        """Drop per-instance state (recorded page traces)."""


class ConstantColdStart(ColdStartModel):
    """The legacy scalar penalty, byte-identical to the pre-model path.

    Returns exactly the configured float so the caller's
    ``start + service + penalty`` arithmetic is unchanged bit-for-bit.
    """

    def __init__(self, penalty_ms: float) -> None:
        if not math.isfinite(penalty_ms) or penalty_ms < 0:
            raise ConfigurationError(
                f"penalty_ms must be finite and >= 0, got {penalty_ms}")
        self._penalty_ms = penalty_ms
        self._charge = ColdStartCharge(other_ms=penalty_ms)

    def cold_start(self, instance_id: str,
                   profile: Optional[FunctionProfile] = None
                   ) -> ColdStartCharge:
        return self._charge


class SnapshotState:
    """Composed snapshot of one instance: pages + Jukebox metadata.

    The data side (:class:`PageReplayState`) records and replays the
    page-fault working set; the instruction side holds the
    :class:`~repro.core.snapshot.MetadataSnapshot` image so a restore
    can re-arm the Jukebox replayer captured with the snapshot.  That
    side is the test oracle for the spectrum's cold cells, which run the
    lukewarm Jukebox sequence instead.  The two agree only while every
    invocation records something: an empty capture keeps the older
    image, where a lukewarm Jukebox would replay nothing.
    """

    def __init__(self, pages: PageReplayState) -> None:
        self.pages = pages
        self.metadata: Optional[MetadataSnapshot] = None

    def restore_pages(self) -> RestoreCharge:
        """Charge the data-side restore (record or replay)."""
        return self.pages.restore()

    def capture_metadata(self, jukebox: Jukebox) -> None:
        """Fold the instance's current Jukebox state into the snapshot.

        Keeps the previous image when the Jukebox has recorded nothing
        yet (an empty capture must not erase a useful one).
        """
        snap = snapshot_jukebox(jukebox)
        if snap is not None:
            self.metadata = snap

    def restore_jukebox(self, params: JukeboxParams) -> Jukebox:
        """Instruction-side restore: a Jukebox pre-armed from the image
        (or a fresh one when nothing was captured)."""
        if self.metadata is None:
            return Jukebox(params)
        return restore_jukebox(self.metadata, params)


class SpectrumColdStart(ColdStartModel):
    """Library init + page restore, per the spec's knobs.

    Maintains one :class:`SnapshotState` per instance; requires the
    instance's :class:`~repro.workloads.profiles.FunctionProfile` to
    size its working set and select its runtime's import graph.
    """

    def __init__(self, spec: ColdStartSpec) -> None:
        if spec.kind != "spectrum":
            raise ConfigurationError(
                f"SpectrumColdStart requires kind='spectrum', got "
                f"{spec.kind!r}")
        self.spec = spec
        self._states: Dict[str, SnapshotState] = {}

    def state_for(self, instance_id: str,
                  profile: FunctionProfile) -> SnapshotState:
        """The instance's snapshot state, created on first use."""
        state = self._states.get(instance_id)
        if state is None:
            state = SnapshotState(PageReplayState(
                pages=working_set_pages(profile),
                params=self.spec.restore,
                replay=self.spec.page_replay))
            self._states[instance_id] = state
        return state

    def cold_start(self, instance_id: str,
                   profile: Optional[FunctionProfile] = None
                   ) -> ColdStartCharge:
        if profile is None:
            raise ConfigurationError(
                "SpectrumColdStart needs the instance's FunctionProfile "
                "to size its working set")
        restore = self.state_for(instance_id, profile).restore_pages()
        init_ms = import_graph_for(profile.language).init_cost_ms(
            trim=self.spec.init_trim)
        return ColdStartCharge(
            init_ms=init_ms,
            page_ms=restore.page_ms,
            faulted_pages=restore.faulted_pages,
            prefetched_pages=restore.prefetched_pages,
            recorded=restore.recorded,
        )

    def reset(self) -> None:
        self._states.clear()


def make_coldstart_model(spec: ColdStartSpec) -> ColdStartModel:
    """Instantiate the model a spec describes (one per simulator)."""
    if spec.kind == "constant":
        return ConstantColdStart(spec.constant_ms)
    if spec.kind == "spectrum":
        return SpectrumColdStart(spec)
    raise ConfigurationError(
        f"unknown cold-start model {spec.kind!r}")

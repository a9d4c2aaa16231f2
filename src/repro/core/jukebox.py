"""The Jukebox facade: per-function-instance record/replay management.

Mirrors the OS bookkeeping of Sec. 3.4.1: every function instance owns two
metadata buffers.  On each invocation the OS programs the *replay* registers
with the buffer written by the previous invocation, and the *record*
registers with the other buffer; the buffers swap roles when the invocation
completes.  Thus invocation N replays the instruction working set observed
at invocation N-1.

Driving pattern (see :mod:`repro.experiments.common`)::

    jb = Jukebox(machine.jukebox)
    for trace in invocations:
        core.flush_microarch_state()        # lukewarm baseline
        jb.begin_invocation(core.hierarchy)
        result = core.run(trace)
        replay_stats = jb.end_invocation(core.hierarchy, result)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.metadata import MetadataBuffer
from repro.core.recorder import JukeboxRecorder
from repro.core.regions import RegionGeometry
from repro.core.replayer import (
    JukeboxReplayer,
    ReplayStats,
    collect_outcomes,
    finalize_overprediction,
)
from repro.errors import SimulationError
from repro.sim.params import JukeboxParams

if TYPE_CHECKING:
    from repro.sim.hierarchy import MemoryHierarchy
    from repro.sim.result import InvocationResult


@dataclass
class JukeboxInvocationReport:
    """Per-invocation Jukebox outcome: replay effects plus record volume."""

    replay: ReplayStats
    recorded_entries: int
    recorded_bytes: int
    recorded_dropped: int


class Jukebox:
    """Per-instance Jukebox state machine (record + replay phases)."""

    def __init__(self, params: JukeboxParams, replay_target: str = "l2",
                 replay_bandwidth_share: float = 1.0) -> None:
        self.params = params
        self.replay_target = replay_target
        self.replay_bandwidth_share = replay_bandwidth_share
        self.geometry = RegionGeometry(params.region_size)
        #: Metadata written by the previous invocation (replay source).
        self._replay_buffer: Optional[MetadataBuffer] = None
        self._recorder: Optional[JukeboxRecorder] = None
        self._replayer: Optional[JukeboxReplayer] = None
        self.invocations = 0
        self.reports: List[JukeboxInvocationReport] = []

    def _new_buffer(self) -> MetadataBuffer:
        return MetadataBuffer(geometry=self.geometry,
                              limit_bytes=self.params.metadata_bytes)

    def begin_invocation(self, hierarchy: MemoryHierarchy) -> ReplayStats:
        """OS scheduling hook: trigger replay, then arm recording."""
        if self._recorder is not None and self._recorder.active:
            raise SimulationError(
                "begin_invocation called while an invocation is in flight"
            )
        self._replayer = JukeboxReplayer(hierarchy)
        if self._replay_buffer is not None and len(self._replay_buffer) > 0:
            self._replayer.replay(self._replay_buffer,
                                  target=self.replay_target,
                                  bandwidth_share=self.replay_bandwidth_share)
        self._recorder = JukeboxRecorder(
            self.params, self._new_buffer(), memory=hierarchy.memory
        )
        hierarchy.record_hook = self._recorder
        return self._replayer.stats

    def end_invocation(self, hierarchy: MemoryHierarchy,
                       result: InvocationResult) -> JukeboxInvocationReport:
        """Descheduling hook: finish recording, swap buffers, collect stats."""
        if self._recorder is None or self._replayer is None:
            raise SimulationError("end_invocation without begin_invocation")
        recorded = self._recorder.finish()
        hierarchy.record_hook = None
        replay_stats = collect_outcomes(
            self._replayer.stats, hierarchy, result.stats.l2,
            result.fetch_sources,
        )
        replay_stats = finalize_overprediction(replay_stats, self._replayer)
        report = JukeboxInvocationReport(
            replay=replay_stats,
            recorded_entries=len(recorded),
            recorded_bytes=recorded.size_bytes,
            recorded_dropped=recorded.dropped_entries,
        )
        self.reports.append(report)
        # The buffer just recorded becomes the next invocation's replay
        # source (Sec. 3.4.1's pointer swap in task_struct).
        self._replay_buffer = recorded
        self._recorder = None
        self.invocations += 1
        return report

    @property
    def has_replay_metadata(self) -> bool:
        return self._replay_buffer is not None and len(self._replay_buffer) > 0

    @property
    def replay_metadata_bytes(self) -> int:
        return self._replay_buffer.size_bytes if self._replay_buffer else 0

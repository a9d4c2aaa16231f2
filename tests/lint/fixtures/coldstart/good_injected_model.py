"""REPRO008 negative: cold-start models built per simulation."""

from dataclasses import dataclass, field

from repro.coldstart import PageReplayState, SnapshotState, SpectrumColdStart
from repro.workloads.suite import SUITE


def make_snapshot(pages: int) -> SnapshotState:
    return SnapshotState(PageReplayState(pages=pages))


@dataclass
class Simulation:
    model: SpectrumColdStart = field(
        default_factory=lambda: SpectrumColdStart(SUITE[0], page_replay=True))

    def fresh_pages(self, pages: int) -> PageReplayState:
        return PageReplayState(pages=pages)

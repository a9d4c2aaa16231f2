"""A trace sink that keeps every event, for tests that read a trace back."""

from __future__ import annotations

from typing import List

from repro.obs.records import TraceEvent


class CaptureSink:
    """Collect every event a tracer writes, oldest first."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        """Nothing to release."""

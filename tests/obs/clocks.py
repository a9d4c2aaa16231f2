"""Deterministic clocks for tests.

The observability layer never reads host time itself (lint rule REPRO006
covers ``obs/``): every timestamp on a :class:`~repro.obs.records
.TraceEvent` comes from a zero-argument callable injected at
:class:`~repro.obs.tracer.Tracer` construction, and the engine's guard
reads deadlines from the same injected clock.  The CLI layer injects
``time.perf_counter``; tests inject the clocks below so traces and
deadlines are bit-stable under ``--inject-fault`` drills.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class TickClock:
    """A deterministic logical clock: 0.0, step, 2*step, ... per call.

    Reruns that make the same sequence of clock reads see the same
    timestamps, which turns per-job "wall time" into a reproducible
    event-count measure in tests.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        if step <= 0:
            raise ConfigurationError(
                f"TickClock step must be > 0, got {step}")
        self._next = float(start)
        self._step = float(step)

    def __call__(self) -> float:
        now = self._next
        self._next += self._step
        return now


class FrozenClock:
    """A clock pinned to one instant (spans measure as zero seconds)."""

    def __init__(self, now: float = 0.0) -> None:
        self._now = float(now)

    def __call__(self) -> float:
        return self._now

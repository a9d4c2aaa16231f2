"""The ``Tracer``: typed event emission with pluggable sinks.

A tracer is *injected* -- constructed per engine context (or per test)
and handed to whatever it observes; there is deliberately no module-level
tracer singleton, and lint rule REPRO008 rejects one.  That keeps traces
scoped to a run, keeps parallel contexts from interleaving records, and
keeps the observability layer out of :meth:`repro.engine.job.Job.key`:
jobs never reference a tracer, so tracing can never perturb the
content-addressed result cache.

Every tracer keeps per-kind counters (the always-on collector the
runner's footer reads); optional sinks fan records out, e.g. a
:class:`JsonlSink` behind the CLI's ``--trace FILE``.  Timestamps come
only from the injected clock (see :mod:`repro.obs.clock`); with no
clock, ``t`` is ``None`` and the trace is a pure event sequence.

:class:`NullTracer` is the explicit no-op for hot paths that want zero
observability overhead (e.g. microbenchmarks).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.lint import contracts
from repro.obs.records import TraceEvent


class JsonlSink:
    """Append events to a JSONL file, one canonical line per record."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ConfigurationError(
                f"trace sink {self.path} is closed; events can no longer "
                f"be recorded")
        self._fh.write(event.to_jsonl() + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Tracer:
    """Emit typed :class:`TraceEvent` records to sinks, counting each kind.

    ``clock`` is the *only* source of timestamps; leave it ``None`` for
    timestamp-free deterministic traces.  ``seq`` increases by exactly one
    per event, so any two tracers fed the same actions produce the same
    records (modulo ``t``).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 sinks: Sequence[Any] = ()) -> None:
        self._clock = clock
        self._sinks = tuple(sinks)
        self._counts: Dict[str, int] = {}
        self._seq = 0

    #: Tracers report as enabled; the NullTracer reports False so guarded
    #: callers can skip building event payloads entirely.
    enabled = True

    def emit(self, kind: str, **fields: Any) -> TraceEvent:
        """Record one event; returns the (validated) record."""
        t = self._clock() if self._clock is not None else None
        event = TraceEvent.make(self._seq, kind, t=t, **fields)
        contracts.check_trace_event(event)
        self._seq += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        for sink in self._sinks:
            sink.write(event)
        return event

    @property
    def counts(self) -> Dict[str, int]:
        """Events emitted per kind (never ages out), in sorted-kind order."""
        return {kind: self._counts[kind] for kind in sorted(self._counts)}

    @property
    def events_emitted(self) -> int:
        """Total events emitted over this tracer's lifetime."""
        return self._seq

    def describe(self) -> str:
        if not self._seq:
            return "obs: no events"
        top = ", ".join(f"{kind}={count}"
                        for kind, count in self.counts.items())
        return f"obs: {self._seq} events ({top})"

    def close(self) -> None:
        """Flush and close every sink (the counters survive)."""
        for sink in self._sinks:
            sink.close()


class NullTracer:
    """The explicit no-op tracer: every emit is a constant-time discard."""

    enabled = False
    events_emitted = 0

    def emit(self, kind: str, **fields: Any) -> None:
        return None

    @property
    def counts(self) -> Dict[str, int]:
        return {}

    def describe(self) -> str:
        return "obs: disabled"

    def close(self) -> None:
        """Nothing to flush."""

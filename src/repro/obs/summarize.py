"""Trace aggregation: turn a JSONL event stream into a sweep report.

``python -m repro.obs summarize trace.jsonl`` reads a trace written by
:class:`~repro.obs.tracer.JsonlSink`, validates every record against the
schema, and reduces it to the quantities an experimenter actually wants:
events per kind, cache hit rate, failed cells, per-cell wall time
(harvest minus dispatch, using the injected-clock readings), and the
slowest cells.  The same functions back the integration tests that
cross-check a trace against the engine's
:class:`~repro.engine.sweep.SweepStats`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TraceSchemaError
from repro.obs import records
from repro.obs.records import TraceEvent


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a JSONL trace file, validating each record.

    Malformed lines raise :class:`TraceSchemaError` with the 1-based line
    number, so a truncated or hand-edited trace fails loudly instead of
    skewing the report.
    """
    path = Path(path)
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceSchemaError(
                    f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                events.append(TraceEvent.from_json(record))
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: {exc}") from exc
    return events


@dataclass
class JobTiming:
    """Dispatch/harvest clock readings for one sweep cell."""

    job: str
    dispatches: int = 0
    harvests: int = 0
    first_dispatch_t: Optional[float] = None
    last_harvest_t: Optional[float] = None

    @property
    def wall_time(self) -> Optional[float]:
        """Harvest-minus-dispatch seconds (``None`` without a clock)."""
        if self.first_dispatch_t is None or self.last_harvest_t is None:
            return None
        return self.last_harvest_t - self.first_dispatch_t


@dataclass
class TraceSummary:
    """The aggregate view of one trace."""

    #: Events per kind, in sorted-kind order; kinds never seen are absent.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Cells the ``sweep.begin`` records announce.
    jobs: int = 0
    #: Cells the ``sweep.end`` records report as failed.
    failures: int = 0
    #: Per-cell timings keyed by (sweep ordinal, task index): labels
    #: repeat when a sweep runs several cells of one function/config, or
    #: two sweeps reuse a cell.  Events before any ``sweep.begin`` fall
    #: in sweep 0.
    timings: Dict[Tuple[int, int], JobTiming] = field(default_factory=dict)

    def count(self, kind: str) -> int:
        """Events of one kind (0 when the trace has none)."""
        return self.counts.get(kind, 0)

    @property
    def events(self) -> int:
        return sum(self.counts.values())

    @property
    def sweeps(self) -> int:
        return self.count(records.SWEEP_BEGIN)

    @property
    def cache_lookups(self) -> int:
        return self.count(records.CACHE_HIT) + self.count(records.CACHE_MISS)

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.count(records.CACHE_HIT) / lookups if lookups else 0.0

    def slowest(self, n: int = 5) -> List[JobTiming]:
        """The ``n`` slowest cells by wall time (ties broken by job id)."""
        timed = [t for t in self.timings.values() if t.wall_time is not None]
        timed.sort(key=lambda t: (-t.wall_time, t.job))
        return timed[:n]


def _timing(summary: TraceSummary, fields: Dict[str, object]) -> JobTiming:
    """The timing of the cell a dispatch/harvest record names, created on
    first sight; ``job`` is only its printed label."""
    return summary.timings.setdefault(
        (summary.sweeps, fields.get("index")),
        JobTiming(job=str(fields.get("job", "?"))))


def summarize(events: Sequence[TraceEvent]) -> TraceSummary:
    """Reduce an event sequence to a :class:`TraceSummary`.

    Cross-checks the stream against itself: each ``sweep.end`` closes
    the latest open ``sweep.begin`` and reports the cells it announced;
    counted ``cache.hit`` and ``retry.backoff`` events must match the
    deltas the ``sweep.end`` records report; reported misses (simulated
    cells) must match the first-attempt ``executor.dispatch`` count,
    and -- whenever a result cache was in play -- the ``cache.miss``
    count too.  A mismatch means the trace was truncated or the
    emitters disagree, and raises :class:`TraceSchemaError` rather than
    reporting wrong numbers.  A ``sweep.begin`` left open (a crashed
    run, or a sweep that raised) is not a mismatch.
    """
    summary = TraceSummary()
    counts = summary.counts
    reported_hits = reported_misses = reported_retries = 0
    first_dispatches = 0
    saw_sweep_end = False
    # Cells announced by each sweep.begin not yet ended, latest last.
    open_jobs: List[int] = []
    for event in events:
        kind = event.kind
        counts[kind] = counts.get(kind, 0) + 1
        fields = event.fields_dict()
        if kind == records.SWEEP_BEGIN:
            open_jobs.append(int(fields.get("jobs", 0)))
            summary.jobs += open_jobs[-1]
        elif kind == records.SWEEP_END:
            jobs = int(fields.get("jobs", 0))
            if not open_jobs:
                raise TraceSchemaError(
                    f"trace is inconsistent: the sweep.end at seq "
                    f"{event.seq} closes no open sweep.begin")
            announced = open_jobs.pop()
            if jobs != announced:
                raise TraceSchemaError(
                    f"trace is inconsistent: the sweep.end at seq "
                    f"{event.seq} reports {jobs} jobs but its sweep.begin "
                    f"announced {announced}")
            saw_sweep_end = True
            reported_hits += int(fields.get("hits", 0))
            reported_misses += int(fields.get("misses", 0))
            reported_retries += int(fields.get("retries", 0))
            summary.failures += int(fields.get("failures", 0))
        elif kind == records.DISPATCH:
            if (int(fields.get("attempt", 0)) == 0
                    and int(fields.get("dispatch", 0)) == 0):
                first_dispatches += 1
            timing = _timing(summary, fields)
            timing.dispatches += 1
            if timing.first_dispatch_t is None and event.t is not None:
                timing.first_dispatch_t = event.t
        elif kind == records.HARVEST:
            timing = _timing(summary, fields)
            timing.harvests += 1
            if event.t is not None:
                timing.last_harvest_t = event.t
    summary.counts = dict(sorted(counts.items()))
    if saw_sweep_end:
        checks = [
            (records.CACHE_HIT, summary.count(records.CACHE_HIT),
             reported_hits),
            (records.RETRY, summary.count(records.RETRY), reported_retries),
            # A "miss" on sweep.end means "cell simulated": exactly one
            # first-attempt dispatch per simulated cell, cache or no cache.
            ("first-attempt executor.dispatch", first_dispatches,
             reported_misses),
        ]
        if summary.cache_lookups or summary.count(records.CACHE_STORE):
            # Only when a result cache was in play does every simulated
            # cell also leave a cache.miss record.
            checks.append((records.CACHE_MISS,
                           summary.count(records.CACHE_MISS),
                           reported_misses))
        for label, counted, reported in checks:
            if counted != reported:
                raise TraceSchemaError(
                    f"trace is inconsistent: counted {counted} {label} "
                    f"events but sweep.end records report {reported}; the "
                    f"trace is truncated or the emitters disagree")
    return summary


def render_summary(summary: TraceSummary, slowest: int = 5) -> str:
    """Human-readable report for the CLI."""
    lines = [
        f"events            {summary.events}",
        f"sweeps            {summary.sweeps}",
        f"jobs              {summary.jobs}",
        f"cache hit rate    {summary.hit_rate:.1%}"
        if summary.cache_lookups else "cache hit rate    n/a",
        f"failures          {summary.failures}",
    ]
    if summary.counts:
        lines.append("events by kind:")
        lines.extend(f"  {kind:<20} {count}"
                     for kind, count in summary.counts.items())
    slow = summary.slowest(slowest)
    if slow:
        lines.append("slowest cells:")
        for timing in slow:
            lines.append(
                f"  {timing.job}  {timing.wall_time:.6f}s "
                f"({timing.dispatches} dispatch, {timing.harvests} harvest)")
    return "\n".join(lines)


"""Trace aggregation: turn a JSONL event stream into a sweep report.

``python -m repro.obs summarize trace.jsonl`` reads a trace written by
:class:`~repro.obs.tracer.JsonlSink`, validates every record against the
schema, and reduces it to the quantities an experimenter actually wants:
cache hit rate, retry and failure counts, per-job wall time (harvest
minus dispatch, using the injected-clock readings), and the slowest
cells.  The same functions back the integration tests that cross-check a
trace against the engine's :class:`~repro.engine.sweep.SweepStats`.
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

    events: int = 0
    sweeps: int = 0
    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_evictions: int = 0
    cache_corruptions: int = 0
    cache_quarantines: int = 0
    cache_store_failures: int = 0
    cache_locks: int = 0
    dispatches: int = 0
    harvests: int = 0
    retries: int = 0
    failures: int = 0
    pool_deaths: int = 0
    degrades: int = 0
    deadlines: int = 0
    worker_kills: int = 0
    fsck_repairs: int = 0
    fsck_evictions: int = 0
    fleet_regions: int = 0
    fleet_shards: int = 0
    fleet_invocations: int = 0
    fleet_dropped: int = 0
    coldstart_sweeps: int = 0
    coldstart_points: int = 0
    coldstart_cold_points: int = 0
    #: Per-cell timings keyed by (sweep ordinal, task index): labels
    #: repeat when a sweep runs several cells of one function/config, or
    #: two sweeps reuse a cell.  Events before any ``sweep.begin`` fall
    #: in sweep 0.
    timings: Dict[Tuple[int, int], JobTiming] = field(default_factory=dict)

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

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

    Cross-checks the stream against itself: counted ``cache.hit`` and
    ``retry.backoff`` events must match the deltas the ``sweep.end``
    records report; reported misses (simulated cells) must match the
    first-attempt ``executor.dispatch`` count, and -- whenever a result
    cache was in play -- the ``cache.miss`` count too.  A mismatch means
    the trace was truncated or the emitters disagree, and raises
    :class:`TraceSchemaError` rather than reporting wrong numbers.
    """
    summary = TraceSummary()
    reported_hits = reported_misses = reported_retries = 0
    first_dispatches = 0
    saw_sweep_end = False
    for event in events:
        summary.events += 1
        kind = event.kind
        fields = event.fields_dict()
        if kind == records.SWEEP_BEGIN:
            summary.sweeps += 1
            summary.jobs += int(fields.get("jobs", 0))
        elif kind == records.SWEEP_END:
            saw_sweep_end = True
            reported_hits += int(fields.get("hits", 0))
            reported_misses += int(fields.get("misses", 0))
            reported_retries += int(fields.get("retries", 0))
            summary.failures += int(fields.get("failures", 0))
        elif kind == records.CACHE_HIT:
            summary.cache_hits += 1
        elif kind == records.CACHE_MISS:
            summary.cache_misses += 1
        elif kind == records.CACHE_STORE:
            summary.cache_stores += 1
        elif kind == records.CACHE_EVICT:
            summary.cache_evictions += 1
        elif kind == records.CACHE_CORRUPT:
            summary.cache_corruptions += 1
        elif kind == records.DISPATCH:
            summary.dispatches += 1
            if (int(fields.get("attempt", 0)) == 0
                    and int(fields.get("dispatch", 0)) == 0):
                first_dispatches += 1
            timing = _timing(summary, fields)
            timing.dispatches += 1
            if timing.first_dispatch_t is None and event.t is not None:
                timing.first_dispatch_t = event.t
        elif kind == records.HARVEST:
            summary.harvests += 1
            timing = _timing(summary, fields)
            timing.harvests += 1
            if event.t is not None:
                timing.last_harvest_t = event.t
        elif kind == records.RETRY:
            summary.retries += 1
        elif kind == records.POOL_DEATH:
            summary.pool_deaths += 1
        elif kind == records.POOL_DEGRADE:
            summary.degrades += 1
        elif kind == records.CACHE_QUARANTINE:
            summary.cache_quarantines += 1
        elif kind == records.CACHE_STORE_FAILED:
            summary.cache_store_failures += 1
        elif kind == records.CACHE_LOCK:
            summary.cache_locks += 1
        elif kind == records.JOB_DEADLINE:
            summary.deadlines += 1
        elif kind == records.WORKER_KILL:
            summary.worker_kills += 1
        elif kind == records.FSCK_REPAIR:
            summary.fsck_repairs += 1
        elif kind == records.FSCK_EVICT:
            summary.fsck_evictions += 1
        elif kind == records.FLEET_REGION_BEGIN:
            summary.fleet_regions += 1
        elif kind == records.FLEET_SHARD:
            summary.fleet_shards += 1
        elif kind == records.FLEET_REGION_END:
            summary.fleet_invocations += int(fields.get("invocations", 0))
            summary.fleet_dropped += int(fields.get("dropped", 0))
        elif kind == records.COLDSTART_SWEEP_BEGIN:
            summary.coldstart_sweeps += 1
        elif kind == records.COLDSTART_POINT:
            summary.coldstart_points += 1
            if fields.get("regime") == "cold":
                summary.coldstart_cold_points += 1
    if saw_sweep_end:
        checks = [
            ("cache.hit", summary.cache_hits, reported_hits),
            ("retry.backoff", summary.retries, reported_retries),
            # A "miss" on sweep.end means "cell simulated": exactly one
            # first-attempt dispatch per simulated cell, cache or no cache.
            ("first-attempt executor.dispatch", first_dispatches,
             reported_misses),
        ]
        if summary.cache_lookups or summary.cache_stores:
            # Only when a result cache was in play does every simulated
            # cell also leave a cache.miss record.
            checks.append(
                ("cache.miss", summary.cache_misses, reported_misses))
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
        f"cache hits        {summary.cache_hits}",
        f"cache misses      {summary.cache_misses}",
        f"cache hit rate    {summary.hit_rate:.1%}"
        if summary.cache_lookups else "cache hit rate    n/a",
        f"cache stores      {summary.cache_stores}",
        f"cache evictions   {summary.cache_evictions}",
        f"retries           {summary.retries}",
        f"failures          {summary.failures}",
        f"pool deaths       {summary.pool_deaths}",
    ]
    # Recovery-layer counters only appear when the guard/fsck machinery
    # actually acted, keeping quiet traces quiet.
    for label, count in (
            ("deadlines hit", summary.deadlines),
            ("workers killed", summary.worker_kills),
            ("quarantined", summary.cache_quarantines),
            ("store failures", summary.cache_store_failures),
            ("fsck repairs", summary.fsck_repairs),
            ("fsck evictions", summary.fsck_evictions)):
        if count:
            lines.append(f"{label:<17} {count}")
    # Fleet counters only appear when a region was actually simulated.
    if summary.fleet_regions:
        lines.append(f"fleet regions     {summary.fleet_regions}")
        lines.append(f"fleet shards      {summary.fleet_shards}")
        lines.append(f"fleet invocations {summary.fleet_invocations}")
        if summary.fleet_dropped:
            lines.append(f"fleet dropped     {summary.fleet_dropped}")
    # Spectrum counters only appear when a sweep actually ran.
    if summary.coldstart_sweeps:
        lines.append(f"spectrum sweeps   {summary.coldstart_sweeps}")
        lines.append(f"spectrum points   {summary.coldstart_points}")
        lines.append(f"spectrum cold pts {summary.coldstart_cold_points}")
    slow = summary.slowest(slowest)
    if slow:
        lines.append("slowest cells:")
        for timing in slow:
            lines.append(
                f"  {timing.job}  {timing.wall_time:.6f}s "
                f"({timing.dispatches} dispatch, {timing.harvests} harvest)")
    return "\n".join(lines)


def summary_to_json(summary: TraceSummary,
                    slowest: int = 5) -> Dict[str, object]:
    """Canonical JSON form of a summary (for ``summarize --json``)."""
    return {
        "events": summary.events,
        "sweeps": summary.sweeps,
        "jobs": summary.jobs,
        "cache": {
            "hits": summary.cache_hits,
            "misses": summary.cache_misses,
            "hit_rate": summary.hit_rate,
            "stores": summary.cache_stores,
            "evictions": summary.cache_evictions,
            "corruptions": summary.cache_corruptions,
            "quarantines": summary.cache_quarantines,
            "store_failures": summary.cache_store_failures,
            "locks": summary.cache_locks,
        },
        "executor": {
            "dispatches": summary.dispatches,
            "harvests": summary.harvests,
            "pool_deaths": summary.pool_deaths,
            "degrades": summary.degrades,
        },
        "guard": {
            "deadlines": summary.deadlines,
            "worker_kills": summary.worker_kills,
        },
        "fsck": {
            "repairs": summary.fsck_repairs,
            "evictions": summary.fsck_evictions,
        },
        "fleet": {
            "regions": summary.fleet_regions,
            "shards": summary.fleet_shards,
            "invocations": summary.fleet_invocations,
            "dropped": summary.fleet_dropped,
        },
        "coldstart": {
            "sweeps": summary.coldstart_sweeps,
            "points": summary.coldstart_points,
            "cold_points": summary.coldstart_cold_points,
        },
        "retries": summary.retries,
        "failures": summary.failures,
        "slowest": [
            {
                "job": timing.job,
                "wall_time": timing.wall_time,
                "dispatches": timing.dispatches,
                "harvests": timing.harvests,
            }
            for timing in summary.slowest(slowest)
        ],
    }

"""``repro.obs``: the determinism-safe observability layer.

Three pieces, all injected rather than global:

* :class:`Tracer` -- typed span/event records for sweep, cache,
  executor, and retry activity, timestamped only by an injectable clock
  (:class:`TickClock` / :class:`FrozenClock` for deterministic tests);
* :class:`MetricsRegistry` -- counters/gauges/histograms with canonical
  JSON export, published into by ``engine.sweep``;
* ``python -m repro.obs summarize`` -- the trace aggregation report.

See DESIGN.md §10 for the record schema and determinism rules.
"""

from repro.obs.clock import FrozenClock, TickClock
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.records import (
    KINDS,
    SCHEMA_VERSION,
    TraceEvent,
    validate_event,
)
from repro.obs.summarize import (
    TraceSummary,
    read_trace,
    render_summary,
    summarize,
    summary_to_json,
)
from repro.obs.tracer import (
    JsonlSink,
    MemorySink,
    NullTracer,
    Tracer,
)

__all__ = [
    "Counter",
    "FrozenClock",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "KINDS",
    "MemorySink",
    "MetricsRegistry",
    "NullTracer",
    "SCHEMA_VERSION",
    "TickClock",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "read_trace",
    "render_summary",
    "summarize",
    "summary_to_json",
    "validate_event",
]

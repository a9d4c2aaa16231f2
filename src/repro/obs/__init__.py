"""``repro.obs``: the determinism-safe observability layer.

Two pieces:

* :class:`Tracer` -- typed event records for sweep, cache, executor,
  retry and guard activity, timestamped only by an injected zero-argument
  clock (the CLI passes ``time.perf_counter``) and injected per engine
  context rather than global;
* ``python -m repro.obs summarize`` -- the trace aggregation report:
  per-kind counts, hit rate, failures and the slowest cells.

See DESIGN.md §10 for the record schema and determinism rules.
"""

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
)
from repro.obs.tracer import (
    JsonlSink,
    NullTracer,
    Tracer,
)

__all__ = [
    "JsonlSink",
    "KINDS",
    "NullTracer",
    "SCHEMA_VERSION",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "read_trace",
    "render_summary",
    "summarize",
    "validate_event",
]

"""REPRO008 positive: module-level observability singletons."""

from repro.obs.tracer import JsonlSink, Tracer

TRACER = Tracer()
SINK: JsonlSink = JsonlSink("trace.jsonl")

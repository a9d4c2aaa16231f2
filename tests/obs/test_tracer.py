"""Tests for :class:`Tracer`, its sinks, and the injectable clocks."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import records
from tests.obs.clocks import FrozenClock, TickClock
from repro.obs.tracer import JsonlSink, NullTracer, Tracer
from tests.obs.capture import CaptureSink


class TestTracer:
    def test_seq_increases_by_one_per_event(self):
        tracer = Tracer()
        for expected in range(5):
            event = tracer.emit(records.CACHE_MISS, key="k")
            assert event.seq == expected
        assert tracer.events_emitted == 5

    def test_counts_by_kind_sorted(self):
        tracer = Tracer()
        tracer.emit(records.CACHE_MISS, key="k")
        tracer.emit(records.CACHE_HIT, key="k")
        tracer.emit(records.CACHE_HIT, key="k")
        assert tracer.counts == {"cache.hit": 2, "cache.miss": 1}
        assert list(tracer.counts) == sorted(tracer.counts)

    def test_no_clock_means_null_timestamps(self):
        tracer = Tracer()
        assert tracer.emit(records.SWEEP_BEGIN, jobs=1, retries=0).t \
            is None

    def test_injected_clock_stamps_every_event(self):
        tracer = Tracer(clock=TickClock(start=10.0, step=0.5))
        assert tracer.emit(records.SWEEP_BEGIN, jobs=0, retries=0).t \
            == 10.0
        assert tracer.emit(records.SWEEP_END, jobs=0).t == 10.5

    def test_two_tracers_same_actions_same_records_modulo_t(self):
        def drive(clock):
            sink = CaptureSink()
            tracer = Tracer(clock=clock, sinks=[sink])
            tracer.emit(records.SWEEP_BEGIN, jobs=2, retries=0)
            tracer.emit(records.CACHE_MISS, key="aa")
            tracer.emit(records.SWEEP_END, jobs=2)
            return sink.events

        a = drive(None)
        b = drive(TickClock())
        assert [(e.seq, e.kind, e.fields) for e in a] == \
            [(e.seq, e.kind, e.fields) for e in b]
        assert [e.t for e in a] != [e.t for e in b]

    def test_describe(self):
        tracer = Tracer()
        assert tracer.describe() == "obs: no events"
        tracer.emit(records.CACHE_HIT, key="k")
        tracer.emit(records.CACHE_HIT, key="k")
        tracer.emit(records.CACHE_MISS, key="k")
        assert tracer.describe() == \
            "obs: 3 events (cache.hit=2, cache.miss=1)"

    def test_enabled_flag(self):
        assert Tracer().enabled is True
        assert NullTracer().enabled is False


class TestSinks:
    def test_events_fan_out_to_every_sink(self):
        first, second = CaptureSink(), CaptureSink()
        tracer = Tracer(sinks=(first, second))
        event = tracer.emit(records.CACHE_STORE, key="k")
        assert first.events == second.events == [event]

    def test_jsonl_sink_writes_canonical_lines(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        tracer = Tracer(sinks=(JsonlSink(path),))
        tracer.emit(records.SWEEP_BEGIN, jobs=1, retries=0)
        tracer.emit(records.SWEEP_END, jobs=1)
        tracer.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))

    def test_jsonl_sink_rejects_writes_after_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError, match="closed"):
            Tracer(sinks=(sink,)).emit(records.CACHE_HIT, key="k")

    def test_close_is_idempotent(self, tmp_path):
        tracer = Tracer(sinks=(JsonlSink(tmp_path / "t.jsonl"),))
        tracer.close()
        tracer.close()


class TestNullTracer:
    def test_emit_is_a_no_op(self):
        tracer = NullTracer()
        assert tracer.emit(records.CACHE_HIT, key="k") is None
        assert tracer.events_emitted == 0
        assert tracer.counts == {}

    def test_describe(self):
        assert NullTracer().describe() == "obs: disabled"


class TestClocks:
    def test_tick_clock_sequence(self):
        clock = TickClock(start=2.0, step=3.0)
        assert [clock() for _ in range(3)] == [2.0, 5.0, 8.0]

    def test_tick_clock_rejects_nonpositive_step(self):
        with pytest.raises(ConfigurationError):
            TickClock(step=0.0)
        with pytest.raises(ConfigurationError):
            TickClock(step=-1.0)

    def test_frozen_clock_never_advances(self):
        clock = FrozenClock(now=42.0)
        assert [clock() for _ in range(3)] == [42.0, 42.0, 42.0]

    def test_identical_tick_clocks_give_identical_readings(self):
        a, b = TickClock(), TickClock()
        assert [a() for _ in range(5)] == [b() for _ in range(5)]

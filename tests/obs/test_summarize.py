"""Tests for trace aggregation and the ``python -m repro.obs`` CLI."""

from __future__ import annotations

import pytest

from repro.errors import TraceSchemaError
from repro.obs import records
from repro.obs.__main__ import main as obs_main
from repro.obs.clock import TickClock
from repro.obs.records import TraceEvent
from repro.obs.summarize import read_trace, render_summary, summarize
from repro.obs.tracer import JsonlSink, Tracer
from tests.obs.capture import CaptureSink


def capturing(clock=None):
    """A tracer and the sink that keeps its events."""
    sink = CaptureSink()
    return Tracer(clock=clock, sinks=[sink]), sink


def consistent_stream():
    """A hand-built trace whose sweep.end deltas match its event counts."""
    tracer, sink = capturing(TickClock())
    tracer.emit(records.SWEEP_BEGIN, jobs=3, retries=1)
    tracer.emit(records.CACHE_HIT, key="aa")
    tracer.emit(records.CACHE_MISS, key="bb")
    tracer.emit(records.CACHE_MISS, key="cc")
    tracer.emit(records.DISPATCH, job="slow", index=1, attempt=0)
    tracer.emit(records.DISPATCH, job="fast", index=2, attempt=0)
    tracer.emit(records.HARVEST, job="fast", index=2, attempt=0, ok=True)
    tracer.emit(records.RETRY, job="slow", index=1, attempt=0, delay_s=0.5,
                error="InjectedTransientError")
    tracer.emit(records.DISPATCH, job="slow", index=1, attempt=1)
    tracer.emit(records.HARVEST, job="slow", index=1, attempt=1, ok=True)
    tracer.emit(records.CACHE_STORE, key="bb")
    tracer.emit(records.CACHE_STORE, key="cc")
    tracer.emit(records.SWEEP_END, jobs=3, hits=1, misses=2, stores=2,
                failures=0, retries=1)
    return sink.events


class TestSummarize:
    def test_counts_every_kind(self):
        summary = summarize(consistent_stream())
        assert summary.events == 13
        assert summary.sweeps == 1
        assert summary.jobs == 3
        assert summary.counts == {
            "cache.hit": 1, "cache.miss": 2, "cache.store": 2,
            "executor.dispatch": 3, "executor.harvest": 2,
            "retry.backoff": 1, "sweep.begin": 1, "sweep.end": 1,
        }
        assert list(summary.counts) == sorted(summary.counts)
        assert summary.count("worker.kill") == 0
        assert summary.failures == 0
        assert summary.cache_lookups == 3
        assert summary.hit_rate == pytest.approx(1 / 3)

    def test_recovery_kinds_show_in_the_per_kind_table(self):
        tracer, sink = capturing()
        tracer.emit(records.CACHE_LOCK, mode="shared", action="acquire")
        tracer.emit(records.WORKER_KILL, reason="job-deadline", killed=1,
                    pending=2)
        tracer.emit(records.CACHE_LOCK, mode="shared", action="release")
        summary = summarize(sink.events)
        assert summary.counts == {"cache.lock": 2, "worker.kill": 1}
        assert summary.events == 3
        text = render_summary(summary)
        for kind, count in summary.counts.items():
            assert f"  {kind:<20} {count}" in text

    @pytest.mark.parametrize("kind", sorted(records.KINDS))
    def test_every_kind_gets_its_own_table_line(self, tmp_path, kind):
        # The per-kind table is generic: each kind of the closed
        # vocabulary survives the JSONL round trip and is listed under
        # its own name, within the table's 20-character column.  A
        # sweep.end needs the sweep.begin it closes.
        assert len(kind) <= 20
        opened = ([records.SWEEP_BEGIN] if kind == records.SWEEP_END
                  else [])
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=(JsonlSink(path),))
        for emitted in opened + [kind]:
            tracer.emit(emitted)
        tracer.close()
        summary = summarize(read_trace(path))
        assert summary.counts == {**dict.fromkeys(opened, 1), kind: 1}
        assert f"\n  {kind:<20} 1" in render_summary(summary)

    def test_jobs_and_failures_sum_across_sweeps(self):
        # An uncached sweep leaves no cache.* record, so only the
        # dispatch cross-check applies.
        tracer, sink = capturing()
        for jobs, failures in ((2, 1), (3, 0), (1, 1)):
            tracer.emit(records.SWEEP_BEGIN, jobs=jobs, retries=0)
            for index in range(jobs):
                tracer.emit(records.DISPATCH, job="F", index=index,
                            attempt=0, dispatch=0)
            tracer.emit(records.SWEEP_END, jobs=jobs, hits=0, misses=jobs,
                        stores=0, failures=failures, retries=0)
        summary = summarize(sink.events)
        assert (summary.sweeps, summary.jobs, summary.failures) == (3, 6, 2)
        assert summary.cache_lookups == 0
        assert sorted(summary.timings) == [(1, 0), (1, 1), (2, 0), (2, 1),
                                           (2, 2), (3, 0)]

    def test_per_job_wall_time_from_clock(self):
        summary = summarize(consistent_stream())
        slow = summary.timings[(1, 1)]
        fast = summary.timings[(1, 2)]
        # TickClock stamps seq order: slow spans dispatch@4 .. harvest@9.
        assert slow.wall_time == pytest.approx(9.0 - 4.0)
        assert slow.dispatches == 2 and slow.harvests == 1
        assert fast.wall_time == pytest.approx(6.0 - 5.0)

    def test_slowest_orders_by_wall_time_then_job(self):
        summary = summarize(consistent_stream())
        assert [t.job for t in summary.slowest(5)] == ["slow", "fast"]
        assert [t.job for t in summary.slowest(1)] == ["slow"]

    def test_no_clock_means_no_wall_times(self):
        events = [TraceEvent.make(0, records.DISPATCH, job="x", index=0,
                                  attempt=0),
                  TraceEvent.make(1, records.HARVEST, job="x", index=0,
                                  attempt=0, ok=True)]
        summary = summarize(events)
        assert summary.timings[(0, 0)].wall_time is None
        assert summary.slowest() == []

    def test_cells_sharing_a_label_time_separately(self):
        # A spectrum sweep labels all its cells function/config alike.
        tracer, sink = capturing(TickClock())
        tracer.emit(records.SWEEP_BEGIN, jobs=2, retries=0)
        for index in (0, 1):
            tracer.emit(records.DISPATCH, job="F/point", index=index,
                        attempt=0)
        for index in (0, 1):
            tracer.emit(records.HARVEST, job="F/point", index=index,
                        attempt=0, ok=True)
        summary = summarize(sink.events)
        assert sorted(summary.timings) == [(1, 0), (1, 1)]
        # seq: sweep.begin@0, dispatches@1,2, harvests@3,4.
        assert [t.wall_time for t in summary.slowest()] == [
            pytest.approx(3.0 - 1.0), pytest.approx(4.0 - 2.0)]
        assert all(t.job == "F/point" and t.dispatches == 1
                   and t.harvests == 1 for t in summary.slowest())

    def test_sweeps_reusing_a_label_time_separately(self):
        tracer, sink = capturing(TickClock())
        for _sweep in range(2):
            tracer.emit(records.SWEEP_BEGIN, jobs=1, retries=0)
            tracer.emit(records.DISPATCH, job="F/baseline", index=0,
                        attempt=0)
            tracer.emit(records.HARVEST, job="F/baseline", index=0,
                        attempt=0, ok=True)
        summary = summarize(sink.events)
        assert sorted(summary.timings) == [(1, 0), (2, 0)]
        assert [t.wall_time for t in summary.slowest()] == [
            pytest.approx(1.0), pytest.approx(1.0)]
        text = render_summary(summary)
        assert text.count("F/baseline  1.000000s (1 dispatch, 1 harvest)") == 2

    @pytest.mark.parametrize("field,delta", [("hits", 1), ("misses", -1),
                                             ("retries", 1)])
    def test_cross_check_rejects_inconsistent_traces(self, field, delta):
        events = list(consistent_stream())
        end = events[-1].fields_dict()
        end[field] += delta
        events[-1] = TraceEvent.make(events[-1].seq, records.SWEEP_END,
                                     t=events[-1].t, **end)
        with pytest.raises(TraceSchemaError, match="inconsistent"):
            summarize(events)

    def test_cross_check_catches_a_lost_cache_miss(self):
        # The dispatches still match sweep.end's misses, so only the
        # cache.miss check sees the missing line.
        events = [e for e in consistent_stream()
                  if e.fields_dict().get("key") != "cc"
                  or e.kind != records.CACHE_MISS]
        with pytest.raises(TraceSchemaError,
                           match=r"counted 1 cache\.miss events but "
                                 r"sweep\.end records report 2"):
            summarize(events)

    def test_end_reporting_other_jobs_than_its_begin_is_inconsistent(
            self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=(JsonlSink(path),))
        tracer.emit(records.SWEEP_BEGIN, jobs=5, retries=0)
        tracer.emit(records.SWEEP_END, jobs=3, hits=0, misses=0, stores=0,
                    failures=0, retries=0)
        tracer.close()
        with pytest.raises(TraceSchemaError,
                           match=r"the sweep\.end at seq 1 reports 3 jobs "
                                 r"but its sweep\.begin announced 5"):
            summarize(read_trace(path))
        assert obs_main(["summarize", str(path)]) == 1

    def test_end_without_an_open_begin_is_inconsistent(self):
        events = [TraceEvent.make(0, records.SWEEP_END, jobs=3, hits=0,
                                  misses=0, stores=0, failures=0,
                                  retries=0)]
        with pytest.raises(TraceSchemaError,
                           match=r"the sweep\.end at seq 0 closes no open "
                                 r"sweep\.begin"):
            summarize(events)

    def test_end_closes_the_latest_open_begin(self):
        # A sweep that raised before its end (the runner goes on under
        # --keep-going) leaves its begin open; the next sweep's end
        # closes the next sweep's begin, not the abandoned one.
        def trace(end_jobs):
            tracer, sink = capturing()
            tracer.emit(records.SWEEP_BEGIN, jobs=2, retries=0)
            tracer.emit(records.SWEEP_BEGIN, jobs=1, retries=0)
            tracer.emit(records.SWEEP_END, jobs=end_jobs, hits=0, misses=0,
                        stores=0, failures=0, retries=0)
            return sink.events

        assert summarize(trace(1)).jobs == 3
        with pytest.raises(TraceSchemaError, match="announced 1"):
            summarize(trace(2))

    def test_cross_check_skipped_without_sweep_end(self):
        # A trace cut before sweep.end (e.g. a crashed run) still
        # summarizes -- there is no reported total to disagree with.
        summary = summarize(list(consistent_stream())[:-1])
        assert summary.count("cache.hit") == 1

    def test_render_summary_mentions_the_essentials(self):
        text = render_summary(summarize(consistent_stream()))
        assert "cache hit rate    33.3%" in text
        assert "failures          0" in text
        assert "  retry.backoff        1" in text
        assert "slowest cells:" in text and "slow" in text

    def test_render_summary_empty_trace(self):
        assert "cache hit rate    n/a" in render_summary(summarize([]))


class TestReadTrace:
    def write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_reads_a_tracer_written_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = CaptureSink()
        tracer = Tracer(sinks=(JsonlSink(path), sink))
        tracer.emit(records.SWEEP_BEGIN, jobs=1, retries=0)
        tracer.emit(records.SWEEP_END, jobs=1, hits=0, misses=0, stores=0,
                    failures=0, retries=0)
        tracer.close()
        events = read_trace(path)
        assert [e.kind for e in events] == ["sweep.begin", "sweep.end"]
        assert events == sink.events

    def test_blank_lines_are_skipped(self, tmp_path):
        line = TraceEvent.make(0, records.CACHE_HIT, key="k").to_jsonl()
        path = self.write(tmp_path, [line, "", line.replace('"seq":0',
                                                           '"seq":1')])
        assert len(read_trace(path)) == 2

    def test_invalid_json_reports_line_number(self, tmp_path):
        good = TraceEvent.make(0, records.CACHE_HIT, key="k").to_jsonl()
        path = self.write(tmp_path, [good, "{not json"])
        with pytest.raises(TraceSchemaError, match=r"trace\.jsonl:2:"):
            read_trace(path)

    def test_schema_violation_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, ['{"schema":1,"seq":0,"kind":"nope"}'])
        with pytest.raises(TraceSchemaError, match=r"trace\.jsonl:1:"):
            read_trace(path)

    def test_retired_coldstart_kind_is_unknown(self, tmp_path):
        # A kind outside the vocabulary, such as one an older build
        # wrote, fails the whole trace instead of being skipped.
        good = TraceEvent.make(0, records.CACHE_HIT, key="k").to_jsonl()
        path = self.write(tmp_path, [
            good, '{"function":"Auth-P","kind":"coldstart.point",'
                  '"regime":"cold","schema":1,"seq":1,"t":null}'])
        with pytest.raises(TraceSchemaError,
                           match=r"trace\.jsonl:2: unknown trace event "
                                 r"kind 'coldstart\.point'"):
            read_trace(path)
        assert obs_main(["summarize", str(path)]) == 1


    def test_retired_fsck_kinds_are_unknown(self, tmp_path):
        # fsck reports its actions in its own text; a trace holding one
        # of its former kinds fails like any other unknown kind.
        for kind in ("fsck.begin", "fsck.end", "fsck.repair", "fsck.evict"):
            path = self.write(tmp_path, [
                '{"kind":"%s","schema":1,"seq":0,"t":null}' % kind])
            with pytest.raises(TraceSchemaError,
                               match=r"trace\.jsonl:1: unknown trace event "
                                     r"kind '%s'" % kind.replace(".", r"\.")):
                read_trace(path)


class TestCli:
    def write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(clock=TickClock(), sinks=(JsonlSink(path),))
        for event in consistent_stream():
            tracer.emit(event.kind, **event.fields_dict())
        tracer.close()
        return path

    def test_summarize_text_exits_zero(self, tmp_path, capsys):
        assert obs_main(["summarize", str(self.write_trace(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "events            13" in out
        assert "cache hit rate    33.3%" in out

    def test_negative_slowest_is_a_usage_error(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            obs_main(["summarize", str(path), "--slowest", "-1"])
        assert exc.value.code == 2
        assert "--slowest: must be >= 0" in capsys.readouterr().err

    def test_zero_slowest_lists_no_cells(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert obs_main(["summarize", str(path), "--slowest", "0"]) == 0
        assert "slowest cells:" not in capsys.readouterr().out

    def test_json_flag_is_a_usage_error(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            obs_main(["summarize", str(path), "--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    def test_non_integer_slowest_is_a_usage_error(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            obs_main(["summarize", str(path), "--slowest", "two"])
        assert exc.value.code == 2
        assert "expected an integer, got 'two'" in capsys.readouterr().err

    def test_schema_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":1,"seq":0,"kind":"nope"}\n')
        assert obs_main(["summarize", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert obs_main(["summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

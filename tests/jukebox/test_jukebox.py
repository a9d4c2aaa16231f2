"""Tests for the Jukebox facade: the record/replay lifecycle."""

import pytest

from repro.core.jukebox import Jukebox
from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.params import JukeboxParams, skylake
from repro.units import KB
from tests.jukebox.snapshot_oracle import snapshot_jukebox


def run_lukewarm_sequence(core, jukebox, traces):
    reports = []
    for trace in traces:
        core.flush_microarch_state()
        jukebox.begin_invocation(core.hierarchy)
        result = core.run(trace)
        reports.append((result, jukebox.end_invocation(core.hierarchy, result)))
    return reports


class TestLifecycle:
    def test_first_invocation_has_no_replay(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        stats = jb.begin_invocation(core.hierarchy)
        assert stats.lines_prefetched == 0
        assert snapshot_jukebox(jb) is None

    def test_second_invocation_replays_first_recording(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        reports = run_lukewarm_sequence(core, jb, tiny_traces[:2])
        _, first = reports[0]
        assert first.recorded_entries > 0
        _, second = reports[1]
        assert second.replay.lines_prefetched > 0

    def test_double_begin_rejected(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        jb.begin_invocation(core.hierarchy)
        with pytest.raises(SimulationError):
            jb.begin_invocation(core.hierarchy)

    def test_end_without_begin_rejected(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        result = core.run(tiny_traces[0])
        with pytest.raises(SimulationError):
            jb.end_invocation(core.hierarchy, result)

    def test_record_hook_cleared_after_invocation(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        run_lukewarm_sequence(core, jb, tiny_traces[:1])
        assert core.hierarchy.record_hook is None

    def test_invocation_counter(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        run_lukewarm_sequence(core, jb, tiny_traces[:3])
        assert jb.invocations == 3
        assert len(jb.reports) == 3


class TestEffectiveness:
    def test_covered_invocations_are_faster(self, tiny_traces):
        baseline = Simulator(skylake())
        base_cycles = []
        for trace in tiny_traces:
            baseline.flush_microarch_state()
            base_cycles.append(baseline.run(trace).cycles)

        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        reports = run_lukewarm_sequence(core, jb, tiny_traces)
        jb_cycles = [result.cycles for result, _ in reports]
        # First invocation has no metadata -> same as baseline.
        assert jb_cycles[0] == pytest.approx(base_cycles[0], rel=0.01)
        # Subsequent invocations are measurably faster.
        for base, with_jb in zip(base_cycles[1:], jb_cycles[1:]):
            assert with_jb < base * 0.95

    def test_coverage_is_high_and_stable(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        reports = run_lukewarm_sequence(core, jb, tiny_traces)
        for result, report in reports[1:]:
            covered = report.replay.covered
            prefetched = report.replay.lines_prefetched
            assert covered > 0.5 * prefetched

    def test_metadata_stable_across_covered_invocations(self, tiny_traces):
        """The recorded metadata must not decay once replay covers the
        working set (the record-on-prefetched-hit rule)."""
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        reports = run_lukewarm_sequence(core, jb, tiny_traces)
        sizes = [report.recorded_bytes for _, report in reports]
        assert sizes[-1] > 0.6 * sizes[0]

    def test_overprediction_bounded(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        reports = run_lukewarm_sequence(core, jb, tiny_traces)
        for _, report in reports[1:]:
            over = report.replay.overpredicted
            assert over < 0.35 * report.replay.lines_prefetched

    def test_tight_budget_truncates_and_covers_less(self, tiny_traces):
        def coverage(budget):
            core = Simulator(skylake())
            jb = Jukebox(JukeboxParams(metadata_bytes=budget))
            reports = run_lukewarm_sequence(core, jb, tiny_traces)
            return sum(r.replay.covered for _, r in reports[1:])

        assert coverage(1 * KB) < coverage(16 * KB)

    def test_recording_becomes_replay_metadata(self, tiny_traces):
        core = Simulator(skylake())
        jb = Jukebox(JukeboxParams())
        assert snapshot_jukebox(jb) is None
        [(_, report)] = run_lukewarm_sequence(core, jb, tiny_traces[:1])
        assert report.recorded_bytes > 0
        assert snapshot_jukebox(jb).architectural_bytes == report.recorded_bytes

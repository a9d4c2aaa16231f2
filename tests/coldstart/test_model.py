"""Unit tests for the cold-start package: pages, libinit, model."""

import pytest

from repro.coldstart import (
    PageReplayState,
    SnapshotState,
    SpectrumColdStart,
    import_graph_for,
    working_set_pages,
)
from repro.coldstart.model import ColdStartModel
from repro.core.jukebox import Jukebox
from repro.errors import ConfigurationError
from repro.sim.params import JukeboxParams
from repro.workloads.profiles import LANGUAGES
from repro.workloads.suite import SUITE
from tests.jukebox.snapshot_oracle import InstanceSnapshot


class TestPages:
    def test_working_set_scales_with_footprint(self):
        by_pages = sorted(SUITE, key=lambda p: working_set_pages(p))
        # Go functions ride a far thinner runtime image than Python.
        assert by_pages[0].language == "go"
        assert all(working_set_pages(p) > 0 for p in SUITE)

    def test_first_restore_records_then_replays(self):
        state = PageReplayState(pages=1000)
        first = state.restore()
        assert state.recorded_pages is not None  # the trace is recorded
        assert first.faulted_pages == 1000
        assert first.prefetched_pages == 0
        second = state.restore()
        assert second.prefetched_pages == state.recorded_pages
        assert second.faulted_pages == 1000 - state.recorded_pages
        assert second.page_ms < first.page_ms

    def test_replay_disabled_repays_full_cost(self):
        state = PageReplayState(pages=1000, replay=False)
        first = state.restore()
        second = state.restore()
        assert state.recorded_pages is None  # nothing recorded
        assert first.page_ms == second.page_ms
        assert second.faulted_pages == 1000

    def test_a_fresh_state_records_the_trace_again(self):
        """Recorded traces live in one state object: a fresh state (one
        per cold cell) starts by recording, whatever another replayed."""
        used = PageReplayState(pages=500)
        first = used.restore()
        used.restore()
        fresh = PageReplayState(pages=500)
        again = fresh.restore()
        assert fresh.recorded_pages is not None
        assert again.page_ms == first.page_ms
        assert fresh.restore().page_ms == used.restore().page_ms

    def test_empty_working_set_rejected(self):
        with pytest.raises(ConfigurationError):
            PageReplayState(pages=0)

    # The charges below are worked by hand from REAP's calibration: a
    # 35 us demand fault, a 3.2 us bulk-prefetched page, a 150 us replay
    # overhead and a 92% stable working set.

    def test_recording_restore_charge(self):
        state = PageReplayState(pages=1001)
        charge = state.restore()
        assert charge.page_ms == 1001 * 35.0 / 1000.0
        assert (charge.faulted_pages, charge.prefetched_pages) == (1001, 0)
        assert state.recorded_pages == 921  # round(920.92)

    def test_replayed_restore_charge(self):
        state = PageReplayState(pages=1001)
        state.restore()
        for _ in range(2):
            charge = state.restore()
            assert charge.page_ms == (150.0 + 921 * 3.2 + 80 * 35.0) / 1000.0
            assert (charge.faulted_pages, charge.prefetched_pages) == (80, 921)

    def test_restore_charge_without_replay(self):
        state = PageReplayState(pages=1001, replay=False)
        for _ in range(3):
            charge = state.restore()
            assert charge.page_ms == 1001 * 35.0 / 1000.0
            assert (charge.faulted_pages, charge.prefetched_pages) == (1001, 0)
        assert state.recorded_pages is None


class TestLibInit:
    @pytest.mark.parametrize("language", LANGUAGES)
    def test_calibrated_inside_coldspy_bounds(self, language):
        # ColdSpy's measured ceiling: trimming eager-unused imports
        # speeds cold boot by at most 2.26x.
        graph = import_graph_for(language)
        speedup = graph.init_cost_ms(trim=False) / graph.init_cost_ms(
            trim=True)
        assert 1.0 < speedup <= 2.26

    def test_python_dominated_by_eager_unused(self):
        # ColdSpy's headline pattern: the trimming opportunity exceeds
        # the useful eager work.
        graph = import_graph_for("python")
        assert graph.eager_unused_ms > graph.eager_used_ms

    def test_trim_drops_exactly_the_unused_class(self):
        for language in LANGUAGES:
            graph = import_graph_for(language)
            assert graph.init_cost_ms(trim=False) - graph.init_cost_ms(
                trim=True) == graph.eager_unused_ms
            assert graph.init_cost_ms(trim=False) == (
                graph.base_ms + graph.eager_used_ms + graph.eager_unused_ms)

    def test_unknown_language_rejected(self):
        with pytest.raises(ConfigurationError):
            import_graph_for("rust")


class TestModels:
    def test_spectrum_decomposition_per_language(self):
        for profile in SUITE[:3]:
            charge = SpectrumColdStart(profile).cold_start()
            graph = import_graph_for(profile.language)
            assert charge.init_ms == graph.init_cost_ms(trim=False)
            assert charge.page_ms > 0

    def test_init_trim_reduces_only_init(self):
        profile = SUITE[0]
        a = SpectrumColdStart(profile).cold_start()
        b = SpectrumColdStart(profile, init_trim=True).cold_start()
        assert b.init_ms < a.init_ms
        assert b.page_ms == a.page_ms

    def test_a_fresh_model_repeats_the_first_charges(self):
        """A cold cell builds its own model, so its charges never depend
        on what an earlier cell's model recorded."""
        profile = SUITE[0]
        used = SpectrumColdStart(profile, page_replay=True)
        first = [used.cold_start() for _ in range(3)]
        assert first[1].page_ms < first[0].page_ms
        fresh = SpectrumColdStart(profile, page_replay=True)
        assert [fresh.cold_start() for _ in range(3)] == first

    @pytest.mark.parametrize("language", LANGUAGES)
    @pytest.mark.parametrize("init_trim", [False, True])
    @pytest.mark.parametrize("page_replay", [False, True])
    def test_knobs_select_the_charge(self, page_replay, init_trim,
                                     language):
        """``init_trim`` picks the import graph's trimmed or full init
        cost on every cold start; ``page_replay`` records the page trace
        on the first restore and prefetches it on later ones."""
        profile = next(p for p in SUITE if p.language == language)
        model = SpectrumColdStart(profile, page_replay=page_replay,
                                  init_trim=init_trim)
        first = model.cold_start()
        second = model.cold_start()
        init_ms = import_graph_for(language).init_cost_ms(trim=init_trim)
        assert first.init_ms == second.init_ms == init_ms
        assert first.faulted_pages == working_set_pages(profile)
        recorded = model.snapshot.pages.recorded_pages is not None
        assert recorded == page_replay
        if page_replay:
            assert second.prefetched_pages > 0
            assert second.page_ms < first.page_ms
        else:
            assert second.prefetched_pages == 0
            assert second.page_ms == first.page_ms

    def test_spectrum_is_a_cold_start_model(self):
        """The charge-span instrumentation finds models as
        ``ColdStartModel`` subclasses that define ``cold_start``."""
        assert issubclass(SpectrumColdStart, ColdStartModel)
        assert "cold_start" in SpectrumColdStart.__dict__


class TestSnapshotState:
    def test_page_half_records_then_replays(self):
        state = SnapshotState(PageReplayState(pages=100))
        first = state.restore_pages()
        second = state.restore_pages()
        assert first.faulted_pages == 100 and first.prefetched_pages == 0
        assert second.prefetched_pages == state.pages.recorded_pages > 0

    def test_composes_page_and_jukebox_sides(self, tiny_machine,
                                             tiny_traces):
        from repro.sim.core import Simulator

        state = InstanceSnapshot(PageReplayState(pages=800))
        params = tiny_machine.jukebox
        # Before any capture the instruction side restores cold.
        fresh = state.restore_jukebox(params)
        assert isinstance(fresh, Jukebox)

        sim = Simulator(tiny_machine)
        jb = Jukebox(params)
        jb.begin_invocation(sim.hierarchy)
        result = sim.run(tiny_traces[0])
        jb.end_invocation(sim.hierarchy, result)
        state.capture_metadata(jb)
        assert state.metadata is not None

        restored = state.restore_jukebox(params)
        assert restored._replay_buffer is not None
        assert len(restored._replay_buffer) == state.metadata.n_entries

    def test_empty_capture_keeps_previous_image(self):
        state = InstanceSnapshot(PageReplayState(pages=10))
        params = JukeboxParams()
        state.capture_metadata(Jukebox(params))  # nothing recorded yet
        assert state.metadata is None

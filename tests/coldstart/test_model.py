"""Unit tests for the cold-start package: pages, libinit, model."""

import pytest

from repro.coldstart import (
    COLDSTART_KINDS,
    ColdStartCharge,
    ColdStartSpec,
    ConstantColdStart,
    PageReplayState,
    RestoreParams,
    SnapshotState,
    SpectrumColdStart,
    import_graph_for,
    make_coldstart_model,
    working_set_pages,
)
from repro.coldstart.libinit import (MAX_TRIM_MEMORY_REDUCTION,
                                     MAX_TRIM_SPEEDUP)
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
        assert first.recorded
        assert first.faulted_pages == 1000
        assert first.prefetched_pages == 0
        second = state.restore()
        assert not second.recorded
        assert second.prefetched_pages == state.recorded_pages
        assert second.faulted_pages == 1000 - state.recorded_pages
        assert second.page_ms < first.page_ms

    def test_replay_disabled_repays_full_cost(self):
        state = PageReplayState(pages=1000, replay=False)
        first = state.restore()
        second = state.restore()
        assert not first.recorded and not second.recorded
        assert first.page_ms == second.page_ms
        assert second.faulted_pages == 1000

    def test_reset_forgets_the_trace(self):
        state = PageReplayState(pages=500)
        first = state.restore()
        state.restore()
        state.reset()
        again = state.restore()
        assert again.recorded
        assert again.page_ms == first.page_ms

    def test_restore_params_validated(self):
        with pytest.raises(ConfigurationError):
            RestoreParams(stable_fraction=1.5)
        with pytest.raises(ConfigurationError):
            RestoreParams(prefetch_us=50.0, fault_us=35.0)
        with pytest.raises(ConfigurationError):
            PageReplayState(pages=0)


class TestLibInit:
    @pytest.mark.parametrize("language", LANGUAGES)
    def test_calibrated_inside_coldspy_bounds(self, language):
        graph = import_graph_for(language)
        assert 1.0 < graph.trim_speedup() <= MAX_TRIM_SPEEDUP
        assert 1.0 <= graph.trim_memory_reduction <= MAX_TRIM_MEMORY_REDUCTION

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

    def test_lazy_libraries_never_charged_at_boot(self):
        graph = import_graph_for("python")
        assert graph.lazy_ms > 0
        assert graph.lazy_ms not in (graph.init_cost_ms(False),)
        assert graph.init_cost_ms(False) == (graph.base_ms
                                             + graph.eager_used_ms
                                             + graph.eager_unused_ms)

    def test_unknown_language_rejected(self):
        with pytest.raises(ConfigurationError):
            import_graph_for("rust")


class TestModels:
    def test_constant_charge_is_exactly_the_scalar(self):
        model = ConstantColdStart(120.0)
        charge = model.cold_start("any")
        assert charge.total_ms == 120.0
        assert charge.init_ms == 0.0 and charge.page_ms == 0.0
        # The addition chain the server uses must be a float no-op.
        assert 0.0 + 0.0 + 120.0 == 120.0

    def test_spec_validation(self):
        assert set(COLDSTART_KINDS) == {"constant", "spectrum"}
        with pytest.raises(ConfigurationError):
            ColdStartSpec(kind="magic")
        with pytest.raises(ConfigurationError):
            ColdStartSpec(constant_ms=-1.0)
        with pytest.raises(ConfigurationError):
            SpectrumColdStart(ColdStartSpec(kind="constant"))

    def test_factory_dispatch(self):
        assert isinstance(
            make_coldstart_model(ColdStartSpec(kind="constant")),
            ConstantColdStart)
        assert isinstance(
            make_coldstart_model(ColdStartSpec(kind="spectrum")),
            SpectrumColdStart)

    def test_spectrum_needs_a_profile(self):
        model = SpectrumColdStart(ColdStartSpec(kind="spectrum"))
        with pytest.raises(ConfigurationError):
            model.cold_start("cell")

    def test_spectrum_decomposition_per_language(self):
        model = SpectrumColdStart(ColdStartSpec(kind="spectrum"))
        for profile in SUITE[:3]:
            charge = model.cold_start(profile.abbrev, profile)
            graph = import_graph_for(profile.language)
            assert charge.init_ms == graph.init_cost_ms(trim=False)
            assert charge.page_ms > 0
            assert charge.other_ms == 0.0

    def test_init_trim_reduces_only_init(self):
        profile = SUITE[0]
        full = SpectrumColdStart(ColdStartSpec(kind="spectrum"))
        trim = SpectrumColdStart(ColdStartSpec(kind="spectrum",
                                               init_trim=True))
        a = full.cold_start("x", profile)
        b = trim.cold_start("x", profile)
        assert b.init_ms < a.init_ms
        assert b.page_ms == a.page_ms

    def test_reset_drops_recorded_traces(self):
        profile = SUITE[0]
        model = SpectrumColdStart(ColdStartSpec(kind="spectrum"))
        first = model.cold_start("x", profile)
        model.cold_start("x", profile)
        model.reset()
        again = model.cold_start("x", profile)
        assert again.page_ms == first.page_ms

    def test_charge_total_is_sum_of_parts(self):
        charge = ColdStartCharge(init_ms=1.5, page_ms=2.25, other_ms=0.25)
        assert charge.total_ms == 4.0


class TestSnapshotState:
    def test_page_half_records_then_replays(self):
        state = SnapshotState(PageReplayState(pages=100))
        first = state.restore_pages()
        second = state.restore_pages()
        assert first.recorded and first.faulted_pages == 100
        assert not second.recorded
        assert second.prefetched_pages == state.pages.recorded_pages > 0

    def test_composes_page_and_jukebox_sides(self, tiny_machine,
                                             tiny_traces):
        from repro.sim.core import Simulator
        from repro.sim.simulate import simulate

        state = InstanceSnapshot(PageReplayState(pages=800))
        params = tiny_machine.jukebox
        # Before any capture the instruction side restores cold.
        fresh = state.restore_jukebox(params)
        assert isinstance(fresh, Jukebox)

        sim = Simulator(tiny_machine)
        jb = Jukebox(params)
        jb.begin_invocation(sim.hierarchy)
        result = simulate(tiny_traces[0], sim=sim)
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

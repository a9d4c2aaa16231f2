"""Tests for the shared experiment drivers."""

import pytest

from repro.core.jukebox import Jukebox
from repro.core.pif import PIF, PIFParams, pif_ideal_params
from repro.engine.job import fingerprint
from repro.errors import ConfigurationError
from repro.experiments.common import (
    CONFIGS,
    RunConfig,
    SequenceResult,
    _TeeHook,
    config_names,
    make_traces,
    register_config,
    run_all_configs,
    run_config,
)
from repro.sim.core import BACKENDS, Simulator
from repro.sim.params import skylake
from repro.sim.core import simulate

CFG = RunConfig(invocations=3, warmup=1)


class TestRunConfig:
    def test_rejects_warmup_ge_invocations(self):
        with pytest.raises(ConfigurationError):
            RunConfig(invocations=2, warmup=2)

    def test_rejects_nonpositive_instruction_scale(self):
        with pytest.raises(ConfigurationError):
            RunConfig(invocations=3, warmup=1, instruction_scale=0.0)
        with pytest.raises(ConfigurationError):
            RunConfig(invocations=3, warmup=1, instruction_scale=-0.5)

    def test_rejects_a_negative_seed(self):
        """numpy's generators reject it; fail before any cell runs."""
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            RunConfig(invocations=3, warmup=1, seed=-1)
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            RunConfig.fast().replace(seed=-1)
        assert RunConfig(invocations=3, warmup=1, seed=0).seed == 0

    def test_fast_preset_is_scaled(self):
        fast = RunConfig.fast()
        assert fast.instruction_scale < 1.0
        assert fast.invocations > fast.warmup

    def test_full_preset(self):
        full = RunConfig.full()
        assert full.instruction_scale == 1.0

    def test_replace_overrides_one_field(self):
        cfg = CFG.replace(seed=9)
        assert cfg.seed == 9
        assert cfg.invocations == CFG.invocations
        assert cfg is not CFG

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError):
            CFG.replace(warmup=CFG.invocations)
        with pytest.raises(ConfigurationError):
            CFG.replace(instruction_scale=0.0)


class TestConfigRegistry:
    def test_standard_configs_registered(self):
        for name in ("reference", "baseline", "jukebox", "perfect", "pif"):
            assert name in CONFIGS

    def test_config_names_sorted(self):
        names = config_names()
        assert list(names) == sorted(names)
        assert "baseline" in names

    def test_run_config_dispatches(self, tiny_profile):
        seq = run_config(tiny_profile, skylake(), CFG, "baseline")
        assert seq.cycles > 0

    def test_run_config_forwards_opts(self, tiny_profile):
        seq = run_config(tiny_profile, skylake(), CFG, "pif",
                         params=pif_ideal_params(), with_jukebox=True)
        assert seq.jukebox_reports

    def test_unknown_config_is_configuration_error(self, tiny_profile):
        with pytest.raises(ConfigurationError, match="unknown config"):
            run_config(tiny_profile, skylake(), CFG, "warp-drive")

    def test_double_registration_rejected(self):
        @register_config("_test_cfg_dup")
        def _build(profile, machine, cfg):
            return None

        # Same function object again: idempotent (module re-imports).
        assert register_config("_test_cfg_dup")(_build) is _build
        with pytest.raises(ConfigurationError):
            @register_config("_test_cfg_dup")
            def _other(profile, machine, cfg):
                return None
        del CONFIGS["_test_cfg_dup"]


class TestDrivers:
    def test_reference_faster_than_baseline(self, tiny_profile):
        m = skylake()
        ref = run_config(tiny_profile, m, CFG, "reference")
        base = run_config(tiny_profile, m, CFG, "baseline")
        assert ref.cycles < base.cycles
        assert ref.instructions == base.instructions

    def test_measured_count_respects_warmup(self, tiny_profile):
        seq = run_config(tiny_profile, skylake(), CFG, "reference")
        assert len(seq.results) == CFG.invocations - CFG.warmup

    def test_jukebox_between_baseline_and_perfect(self, tiny_profile):
        m = skylake()
        base = run_config(tiny_profile, m, CFG, "baseline")
        jb = run_config(tiny_profile, m, CFG, "jukebox")
        perfect = run_config(tiny_profile, m, CFG, "perfect")
        assert perfect.cycles < jb.cycles < base.cycles

    def test_jukebox_reports_collected(self, tiny_profile):
        jb = run_config(tiny_profile, skylake(), CFG, "jukebox")
        assert len(jb.jukebox_reports) == CFG.invocations - CFG.warmup
        assert all(r.replay.lines_prefetched > 0 for r in jb.jukebox_reports)

    def test_pif_runs(self, tiny_profile):
        seq = run_config(tiny_profile, skylake(), CFG, "pif",
                         params=PIFParams())
        assert seq.cycles > 0

    def test_combined_jukebox_pif(self, tiny_profile):
        m = skylake()
        base = run_config(tiny_profile, m, CFG, "baseline")
        combo = run_config(tiny_profile, m, CFG, "pif",
                           params=pif_ideal_params(), with_jukebox=True)
        assert combo.cycles < base.cycles
        assert combo.jukebox_reports

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_combined_jukebox_pif_matches_dedicated_loop(self, tiny_profile,
                                                         backend):
        """Jukebox + PIF runs through the shared measurement loop; the
        reference is the dedicated loop it replaced, kept inline: flush
        both, arm Jukebox, tee its recorder to PIF for the run, restore
        it, then close the invocation."""
        machine = skylake()
        cfg = CFG.replace(backend=backend)
        params = pif_ideal_params()
        sim = Simulator(machine, backend=cfg.backend)
        pif = PIF(params, sim.hierarchy)
        jukebox = Jukebox(machine.jukebox)
        measured, reports = [], []
        for i, trace in enumerate(make_traces(tiny_profile, cfg)):
            sim.flush_microarch_state()
            pif.flush()
            jukebox.begin_invocation(sim.hierarchy)
            jb_recorder = sim.hierarchy.record_hook
            sim.hierarchy.record_hook = _TeeHook(jb_recorder, pif)
            result = simulate(trace, sim=sim)
            sim.hierarchy.record_hook = jb_recorder
            report = jukebox.end_invocation(sim.hierarchy, result)
            if i >= cfg.warmup:
                measured.append(result)
                reports.append(report)
        reference = SequenceResult(results=measured,
                                   jukebox_reports=reports)
        combo = run_config(tiny_profile, machine, cfg, "pif",
                           params=params, with_jukebox=True)
        assert fingerprint(combo) == fingerprint(reference)
        # PIF's prefetches show in the result: the cell is not Jukebox
        # alone.
        jukebox_only = run_config(tiny_profile, machine, cfg, "jukebox")
        assert fingerprint(combo) != fingerprint(jukebox_only)

    def test_run_all_configs_keys(self, tiny_profile):
        results = run_all_configs(tiny_profile, skylake(), CFG)
        assert set(results) == {"reference", "baseline", "jukebox", "perfect"}

    def test_sequence_result_helpers(self, tiny_profile):
        seq = run_config(tiny_profile, skylake(), CFG, "baseline")
        assert seq.cpi == pytest.approx(seq.cycles / seq.instructions)
        assert seq.mean_mpki("l2", "inst") > 0

"""End-to-end integration tests on real suite functions (reduced scale).

These assert the paper's *qualitative* results hold through the full
pipeline: workload generation -> hierarchy simulation -> Jukebox
record/replay -> analysis.
"""

import pytest

from repro.analysis.metrics import speedup
from repro.core.jukebox import Jukebox
from repro.experiments.common import (
    RunConfig,
    make_traces,
    run_config,
)
from repro.sim.core import Simulator
from repro.sim.params import JukeboxParams, broadwell, skylake
from repro.units import KB
from repro.workloads.suite import get_profile

CFG = RunConfig(invocations=4, warmup=2, instruction_scale=0.35)


@pytest.fixture(scope="module")
def auth_g_runs():
    profile = get_profile("Auth-G")
    m = skylake()
    return {name: run_config(profile, m, CFG, name)
            for name in ("reference", "baseline", "jukebox", "perfect")}


class TestLukewarmPhenomenon:
    def test_interleaving_slows_execution(self, auth_g_runs):
        ratio = auth_g_runs["baseline"].cpi / auth_g_runs["reference"].cpi
        assert ratio > 1.15

    def test_front_end_is_the_bottleneck(self, auth_g_runs):
        base = auth_g_runs["baseline"]
        ref = auth_g_runs["reference"]
        extra_fl = sum(r.topdown.fetch_latency for r in base.results) \
            - sum(r.topdown.fetch_latency for r in ref.results)
        extra_total = base.cycles - ref.cycles
        assert extra_fl > 0.4 * extra_total

    def test_reference_has_no_llc_instruction_misses(self, auth_g_runs):
        assert auth_g_runs["reference"].mean_mpki("llc", "inst") < 1.0

    def test_interleaved_misses_llc_for_instructions(self, auth_g_runs):
        assert auth_g_runs["baseline"].mean_mpki("llc", "inst") > 5.0


class TestJukeboxEffectiveness:
    def test_speedup_ordering(self, auth_g_runs):
        jb = speedup(auth_g_runs["baseline"].cycles,
                     auth_g_runs["jukebox"].cycles)
        pf = speedup(auth_g_runs["baseline"].cycles,
                     auth_g_runs["perfect"].cycles)
        assert 0.05 < jb < pf

    def test_jukebox_recovers_majority_of_opportunity(self, auth_g_runs):
        jb = speedup(auth_g_runs["baseline"].cycles,
                     auth_g_runs["jukebox"].cycles)
        pf = speedup(auth_g_runs["baseline"].cycles,
                     auth_g_runs["perfect"].cycles)
        assert jb / pf > 0.45

    def test_l2_instruction_misses_mostly_covered(self, auth_g_runs):
        base_mpki = auth_g_runs["baseline"].mean_mpki("l2", "inst")
        jb_mpki = auth_g_runs["jukebox"].mean_mpki("l2", "inst")
        assert jb_mpki < 0.4 * base_mpki

    def test_metadata_within_paper_budget(self, auth_g_runs):
        """Go functions fit the 16KB budget (Sec. 5.3)."""
        for report in auth_g_runs["jukebox"].jukebox_reports:
            assert report.recorded_bytes <= 16 * KB
            assert report.recorded_dropped == 0

    def test_bandwidth_overhead_bounded(self, auth_g_runs):
        jb = auth_g_runs["jukebox"]
        over_lines = sum(r.replay.overpredicted for r in jb.jukebox_reports)
        meta = sum(r.replay.metadata_bytes_read + r.recorded_bytes
                   for r in jb.jukebox_reports)
        demand = sum(r.stats.memory.demand_inst + r.stats.memory.demand_data
                     for r in jb.results)
        overhead = (over_lines * 64 + meta) / demand
        assert overhead < 0.35


class TestLanguageEffects:
    def test_python_metadata_exceeds_budget(self):
        """Python/NodeJS metadata truncates at 16KB (Figs. 8 and 11)."""
        jb = run_config(get_profile("Email-P"), skylake(), CFG, "jukebox")
        assert any(r.recorded_dropped > 0 or r.recorded_bytes > 15 * KB
                   for r in jb.jukebox_reports)

    def test_go_coverage_exceeds_python_coverage(self):
        m = skylake()

        def coverage(abbrev):
            profile = get_profile(abbrev)
            base = run_config(profile, m, CFG, "baseline")
            jb = run_config(profile, m, CFG, "jukebox")
            covered = sum(r.replay.covered for r in jb.jukebox_reports)
            misses = sum(r.stats.l2.inst_misses for r in base.results)
            return covered / misses

        assert coverage("Auth-G") > coverage("Pay-N")


class TestBroadwellEffect:
    def test_small_l2_keeps_misses_but_llc_covers(self):
        """Table 3: prefetches conflict-evicted from a 256KB L2 are still
        served by the LLC."""
        from repro.sim.params import MODE_EVALUATION
        profile = get_profile("Email-P")
        m = broadwell(mode=MODE_EVALUATION)
        base = run_config(profile, m, CFG, "baseline")
        jb = run_config(profile, m, CFG, "jukebox")
        l2_reduction = 1 - jb.mean_mpki("l2", "inst") / base.mean_mpki("l2", "inst")
        llc_reduction = 1 - jb.mean_mpki("llc", "inst") / base.mean_mpki("llc", "inst")
        assert llc_reduction > 0.6
        assert l2_reduction < 0.5


class TestRecordReplayStability:
    def test_steady_state_speedup_does_not_decay(self):
        """Invocations 2..N must all stay fast (no covered/uncovered
        oscillation -- the record-on-prefetched-hit rule)."""
        profile = get_profile("Auth-G")
        cfg = RunConfig(invocations=6, warmup=1, instruction_scale=0.35)
        m = skylake()
        core = Simulator(m)
        jb = Jukebox(JukeboxParams())
        traces = make_traces(profile, cfg)
        cycles = []
        for trace in traces:
            core.flush_microarch_state()
            jb.begin_invocation(core.hierarchy)
            result = core.run(trace)
            jb.end_invocation(core.hierarchy, result)
            cycles.append(result.cycles)
        steady = cycles[2:]
        assert max(steady) < 1.15 * min(steady)
        assert max(steady) < 0.95 * cycles[0]

"""Tests for the per-invocation trace generator."""

import pytest

from repro.experiments.common import RunConfig, make_model
from repro.units import LINE_SIZE
from repro.workloads.function import FunctionModel
from repro.workloads.suite import SUITE, get_profile
from repro.workloads.trace import BRANCH, IFETCH, LOAD, LOOP, STORE


class TestTraceGeneration:
    def test_deterministic_per_invocation_index(self, tiny_profile):
        m1 = FunctionModel(tiny_profile, seed=3)
        m2 = FunctionModel(tiny_profile, seed=3)
        t1 = m1.invocation_trace(5)
        t2 = m2.invocation_trace(5)
        assert (t1.kinds == t2.kinds).all()
        assert (t1.addrs == t2.addrs).all()

    def test_different_invocations_differ(self, tiny_model):
        t0 = tiny_model.invocation_trace(0)
        t1 = tiny_model.invocation_trace(1)
        assert t0.instruction_blocks() != t1.instruction_blocks()

    def test_instruction_volume_near_target(self, tiny_profile):
        model = FunctionModel(tiny_profile, seed=1)
        insts = model.invocation_trace(0).total_instructions
        assert 0.5 * tiny_profile.instructions < insts \
            < 2.0 * tiny_profile.instructions

    def test_footprint_near_target(self, tiny_profile):
        model = FunctionModel(tiny_profile, seed=1)
        fp = model.invocation_trace(0).instruction_footprint_bytes()
        target = tiny_profile.footprint_bytes
        assert 0.75 * target < fp < 1.25 * target

    def test_footprint_variance_is_low(self, tiny_model):
        sizes = [len(tiny_model.footprint_blocks(i)) for i in range(6)]
        spread = (max(sizes) - min(sizes)) / max(sizes)
        assert spread < 0.15  # Fig. 6a: "notably low variance"

    def test_commonality_high_but_not_total(self, tiny_model):
        a = tiny_model.footprint_blocks(0)
        b = tiny_model.footprint_blocks(1)
        jaccard = len(a & b) / len(a | b)
        assert 0.75 < jaccard < 1.0

    def test_contains_all_event_kinds(self, tiny_traces):
        kinds = set(tiny_traces[0].kinds.tolist())
        assert {IFETCH, LOAD, STORE, BRANCH, LOOP} <= kinds

    def test_loopiness_budget(self, tiny_profile):
        model = FunctionModel(tiny_profile, seed=1)
        trace = model.invocation_trace(0)
        loop_insts = sum(spec.total_insts for spec in trace.loops)
        frac = loop_insts / trace.total_instructions
        assert abs(frac - tiny_profile.loopiness) < 0.2

    def test_zero_loopiness_produces_no_loops(self, tiny_profile):
        from dataclasses import replace
        profile = replace(tiny_profile, loopiness=0.0)
        trace = FunctionModel(profile, seed=1).invocation_trace(0)
        assert not trace.loops

    def test_data_accesses_within_arena(self, tiny_model, tiny_traces):
        data = tiny_traces[0].data_blocks()
        arena = set(int(a) for a in tiny_model._data_blocks)
        assert data <= arena

    def test_footprint_blocks_within_layout(self, tiny_model):
        layout_blocks = tiny_model.layout.all_blocks()
        assert tiny_model.footprint_blocks(0) <= layout_blocks

    def test_branch_sites_stable_across_invocations(self, tiny_model):
        def sites(trace):
            return {int(a) for k, a, *_ in trace.events() if k == BRANCH}
        s0 = sites(tiny_model.invocation_trace(0))
        s1 = sites(tiny_model.invocation_trace(1))
        common = len(s0 & s1) / len(s0 | s1)
        assert common > 0.6

    def test_density_affects_region_count(self, tiny_profile, sparse_profile):
        """Sparser code touches more 1KB regions per footprint byte."""
        def regions_per_kb(profile):
            model = FunctionModel(profile, seed=2)
            blocks = model.footprint_blocks(0)
            regions = {b >> 10 for b in blocks}
            return len(regions) / (len(blocks) * 64 / 1024)
        assert regions_per_kb(sparse_profile) > regions_per_kb(tiny_profile)


class TestScaledProfiles:
    def test_scaled_reduces_instructions(self, tiny_profile):
        scaled = tiny_profile.scaled(0.5)
        assert scaled.instructions < tiny_profile.instructions

    def test_scaled_keeps_footprint(self, tiny_profile):
        scaled = tiny_profile.scaled(0.5)
        assert scaled.footprint_kb == tiny_profile.footprint_kb

    def test_scaled_rejects_nonpositive(self, tiny_profile):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            tiny_profile.scaled(0.0)


def scanned_sites(model, seg):
    """The slow oracle: the linear scan over every branch PC that the
    per-segment index replaces."""
    return [pc for pc in model._branch_pcs
            if seg.blocks[0] <= pc <= seg.blocks[-1] + LINE_SIZE]


class TestBranchSiteIndex:
    @pytest.mark.parametrize("scale", ["full", "fast"])
    @pytest.mark.parametrize("abbrev", [p.abbrev for p in SUITE])
    def test_index_equals_linear_scan(self, abbrev, scale):
        cfg = RunConfig.full() if scale == "full" else RunConfig.fast()
        model = make_model(get_profile(abbrev), cfg)
        assert set(model._segment_sites) == {s.name for s in model._spine}
        for seg in model._spine:
            assert model._segment_sites[seg.name] == scanned_sites(model, seg)

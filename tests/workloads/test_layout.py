"""Tests for code layout generation."""

import pytest

from repro.errors import ConfigurationError
from repro.units import KB, LINE_SIZE
from repro.workloads.layout import (
    CodeSegment,
    ROLE_LIBRARY,
    ROLE_RUNTIME,
    ROLE_USER,
    ROLES,
    build_layout,
)


def layout(footprint_kb=128, density=0.8, optional=0.15, hot=0.3, seed=1,
           **kwargs):
    return build_layout(
        footprint_bytes=footprint_kb * KB,
        density=density,
        optional_fraction=optional,
        hot_fraction=hot,
        seed=seed,
        **kwargs,
    )


def by_role(lay, role):
    return [seg for seg in lay.segments if seg.role == role]


def total_blocks(lay):
    return sum(seg.n_blocks for seg in lay.segments)


def span_bytes(seg):
    return seg.blocks[-1] - seg.blocks[0] + LINE_SIZE


class TestCodeSegment:
    def test_basic_properties(self):
        seg = CodeSegment("s", ROLE_USER, blocks=(0, 64, 256))
        assert seg.n_blocks == 3
        assert seg.size_bytes == 3 * LINE_SIZE

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            CodeSegment("s", ROLE_USER, blocks=())

    def test_rejects_bad_role(self):
        with pytest.raises(ConfigurationError):
            CodeSegment("s", "kernel", blocks=(0,))


class TestBuildLayout:
    def test_total_size_close_to_target(self):
        lay = layout(footprint_kb=256)
        assert abs(total_blocks(lay) * LINE_SIZE - 256 * KB) < 16 * KB

    def test_all_roles_present(self):
        lay = layout()
        for role in ROLES:
            assert by_role(lay, role), f"no {role} segments"

    def test_roles_in_disjoint_address_areas(self):
        lay = layout()
        ranges = {}
        for role in ROLES:
            segs = by_role(lay, role)
            ranges[role] = (min(s.blocks[0] for s in segs),
                            max(s.blocks[-1] for s in segs))
        values = sorted(ranges.values())
        for (lo1, hi1), (lo2, hi2) in zip(values, values[1:]):
            assert hi1 < lo2

    def test_blocks_are_line_aligned_and_sorted(self):
        lay = layout()
        for seg in lay.segments:
            assert all(b % LINE_SIZE == 0 for b in seg.blocks)
            assert list(seg.blocks) == sorted(seg.blocks)

    def test_no_duplicate_blocks_across_segments(self):
        lay = layout()
        blocks = {b for seg in lay.segments for b in seg.blocks}
        assert len(blocks) == total_blocks(lay)

    def test_density_controls_span(self):
        dense = layout(density=0.9, seed=3)
        sparse = layout(density=0.45, seed=3)

        def mean_density(lay):
            return sum(s.size_bytes / span_bytes(s) for s in lay.segments) \
                / len(lay.segments)

        assert mean_density(dense) > mean_density(sparse)

    def test_optional_fraction_respected(self):
        lay = layout(optional=0.3, footprint_kb=512, seed=5)
        opt_blocks = sum(s.n_blocks for s in lay.segments if s.optional)
        frac = opt_blocks / total_blocks(lay)
        assert 0.15 < frac < 0.45

    def test_zero_optional_fraction(self):
        lay = layout(optional=0.0)
        assert not any(s.optional for s in lay.segments)

    def test_every_role_has_mandatory_hot_segment(self):
        lay = layout(hot=0.05, seed=9)
        for role in ROLES:
            segs = by_role(lay, role)
            assert any(s.hot and not s.optional for s in segs)

    def test_hot_fraction_controls_hot_blocks(self):
        def hot_share(lay):
            return sum(s.n_blocks for s in lay.segments if s.hot) \
                / total_blocks(lay)

        assert hot_share(layout(hot=0.05, seed=4)) < hot_share(
            layout(hot=0.8, seed=4))

    def test_deterministic_for_seed(self):
        a, b = layout(seed=11), layout(seed=11)
        assert [s.blocks for s in a.segments] == [s.blocks for s in b.segments]

    def test_different_seed_different_layout(self):
        a, b = layout(seed=11), layout(seed=12)
        assert [s.blocks for s in a.segments] != [s.blocks for s in b.segments]

    def test_rejects_tiny_footprint(self):
        with pytest.raises(ConfigurationError):
            layout(footprint_kb=8)

    def test_rejects_bad_density(self):
        with pytest.raises(ConfigurationError):
            layout(density=0.0)
        with pytest.raises(ConfigurationError):
            layout(density=1.5)

    def test_rejects_bad_optional_fraction(self):
        with pytest.raises(ConfigurationError):
            layout(optional=1.0)

"""Tests for the code-region geometry and 54-bit entry encoding."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import regions
from repro.core.regions import RegionGeometry
from repro.engine.job import canonicalize
from repro.errors import ConfigurationError
from repro.units import KB, LINE_SIZE, VA_BITS, log2_int


class TestPaperEncoding:
    def test_1kb_region_is_54_bits(self):
        """Sec. 3.2: 38-bit pointer + 16-bit vector = 54 bits per entry."""
        geo = RegionGeometry(1 * KB)
        assert geo.pointer_bits == 38
        assert geo.vector_bits == 16
        assert geo.entry_bits == 54

    @pytest.mark.parametrize("region,pointer,vector", [
        (128, 41, 2), (256, 40, 4), (512, 39, 8),
        (2 * KB, 37, 32), (4 * KB, 36, 64), (8 * KB, 35, 128),
    ])
    def test_other_region_sizes(self, region, pointer, vector):
        geo = RegionGeometry(region)
        assert geo.pointer_bits == pointer
        assert geo.vector_bits == vector


class TestGeometry:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            RegionGeometry(1000)

    def test_rejects_sub_line_region(self):
        with pytest.raises(ConfigurationError):
            RegionGeometry(32)

    def test_region_of(self):
        geo = RegionGeometry(1 * KB)
        assert geo.region_of(0) == 0
        assert geo.region_of(1023) == 0
        assert geo.region_of(1024) == 1

    def test_region_base_inverts_region_of(self):
        geo = RegionGeometry(1 * KB)
        assert geo.region_base(geo.region_of(5000)) == 4096

    def test_line_offset(self):
        geo = RegionGeometry(1 * KB)
        assert geo.line_offset(0) == 0
        assert geo.line_offset(64) == 1
        assert geo.line_offset(1024) == 0  # wraps at region boundary

    def test_expand(self):
        geo = RegionGeometry(1 * KB)
        addrs = geo.expand(region=2, vector=0b101)
        assert addrs == [2048, 2048 + 2 * LINE_SIZE]

    def test_expand_empty_vector(self):
        geo = RegionGeometry(1 * KB)
        assert geo.expand(0, 0) == []

    def test_expand_full_vector(self):
        geo = RegionGeometry(1 * KB)
        assert len(geo.expand(0, (1 << 16) - 1)) == 16


#: Every power-of-two region size from one line (64 B) to 64 KiB.
SIZES = tuple(LINE_SIZE << k for k in range(11))


def touch_derived(geo):
    return (geo.region_shift, geo.lines_per_region, geo.pointer_bits,
            geo.vector_bits, geo.entry_bits)


class TestDerivedConstantsCached:
    """The derived constants are computed once per geometry and cached on
    the instance, without becoming dataclass fields."""

    @pytest.mark.parametrize("size", SIZES)
    def test_values_equal_the_formulas(self, size):
        geo = RegionGeometry(size)
        shift = log2_int(size)
        lines = size // LINE_SIZE
        expected = (shift, lines, VA_BITS - shift, lines,
                    VA_BITS - shift + lines)
        assert touch_derived(geo) == expected
        assert touch_derived(geo) == expected  # the cached reads agree

    @pytest.mark.parametrize("size", SIZES)
    def test_value_semantics_unchanged(self, size):
        fresh = RegionGeometry(size)
        used = RegionGeometry(size)
        touch_derived(used)
        assert [f.name for f in dataclasses.fields(RegionGeometry)] == [
            "region_size"]
        assert used == fresh and hash(used) == hash(fresh)
        assert canonicalize(used) == canonicalize(fresh) == {
            "region_size": size, "__dataclass__": "RegionGeometry"}
        for geo in (fresh, used):
            back = pickle.loads(pickle.dumps(geo))
            assert back == geo and hash(back) == hash(geo)
            assert touch_derived(back) == touch_derived(used)

    def test_region_shift_is_derived_once(self, monkeypatch):
        calls = []

        def counting_log2(value):
            calls.append(value)
            return log2_int(value)

        monkeypatch.setattr(regions, "log2_int", counting_log2)
        geo = RegionGeometry(1 * KB)
        for vaddr in range(0, 64 * KB, LINE_SIZE):
            geo.region_of(vaddr)
            geo.line_offset(vaddr)
            geo.region_base(3)
        assert geo.entry_bits == 54
        assert calls == [1 * KB]


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 48) - 1),
           st.sampled_from([128, 512, 1 * KB, 4 * KB]))
    def test_encode_decode_roundtrip(self, vaddr, region_size):
        """Any address encodes to (region, bit) and decodes to its block."""
        geo = RegionGeometry(region_size)
        region = geo.region_of(vaddr)
        bit = geo.line_offset(vaddr)
        addrs = geo.expand(region, 1 << bit)
        assert addrs == [(vaddr // LINE_SIZE) * LINE_SIZE]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 38) - 1),
           st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_expand_count_is_popcount(self, region, vector):
        geo = RegionGeometry(1 * KB)
        assert len(geo.expand(region, vector)) == bin(vector).count("1")

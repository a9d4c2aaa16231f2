"""Unit tests for address-math helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    KB,
    LINE_SHIFT,
    LINE_SIZE,
    MB,
    PAGE_SHIFT,
    PAGE_SIZE,
    block_addr,
    is_power_of_two,
    log2_int,
)


class TestConstants:
    def test_line_size(self):
        assert LINE_SIZE == 64

    def test_kb_mb(self):
        assert KB == 1024
        assert MB == 1024 * KB

    def test_page_size(self):
        assert PAGE_SIZE == 4096

    def test_line_shift_matches_line_size(self):
        assert 1 << LINE_SHIFT == LINE_SIZE
        assert log2_int(LINE_SIZE) == LINE_SHIFT

    def test_page_shift_matches_page_size(self):
        assert 1 << PAGE_SHIFT == PAGE_SIZE
        assert log2_int(PAGE_SIZE) == PAGE_SHIFT


class TestBlockMath:
    def test_block_addr_of_zero(self):
        assert block_addr(0) == 0

    def test_block_addr_within_first_line(self):
        assert block_addr(LINE_SIZE - 1) == 0
        assert block_addr(LINE_SIZE) == LINE_SIZE

    def test_block_addr_rounds_down(self):
        assert block_addr(100) == 64

    def test_block_addr_aligned_is_identity(self):
        assert block_addr(128) == 128

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_block_addr_is_aligned(self, addr):
        assert block_addr(addr) % LINE_SIZE == 0
        assert block_addr(addr) <= addr < block_addr(addr) + LINE_SIZE

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_block_number_consistent_with_block_addr(self, addr):
        # The simulator numbers blocks with ``addr >> LINE_SHIFT``; traces
        # and Jukebox metadata carry ``block_addr`` byte addresses.
        assert (addr >> LINE_SHIFT) << LINE_SHIFT == block_addr(addr)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_page_number_brackets_address(self, addr):
        page = addr >> PAGE_SHIFT
        assert page * PAGE_SIZE <= addr < (page + 1) * PAGE_SIZE


class TestPowersOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 64, 4096, 1 << 30])
    def test_accepts_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 100])
    def test_rejects_non_powers(self, value):
        assert not is_power_of_two(value)

    def test_log2(self):
        assert log2_int(1) == 0
        assert log2_int(64) == 6
        assert log2_int(1 << 20) == 20

    def test_log2_rejects_non_power(self):
        with pytest.raises(ValueError):
            log2_int(100)

    @pytest.mark.parametrize("value", [0, -1, -64])
    def test_log2_rejects_nonpositive(self, value):
        with pytest.raises(ValueError):
            log2_int(value)

    @given(st.integers(min_value=0, max_value=62))
    def test_log2_inverts_shift(self, k):
        assert log2_int(1 << k) == k

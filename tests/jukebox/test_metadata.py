"""Tests for the bounded in-memory metadata buffer."""

from repro.core.metadata import MetadataBuffer
from repro.core.regions import RegionGeometry
from repro.units import KB

GEO = RegionGeometry(1 * KB)


def buffer(limit_bytes=1 * KB) -> MetadataBuffer:
    return MetadataBuffer(geometry=GEO, limit_bytes=limit_bytes)


class TestCapacity:
    def test_capacity_entries_from_bits(self):
        buf = buffer(limit_bytes=54)  # 54 bytes = 432 bits = 8 entries
        assert buf.capacity_entries == 8

    def test_paper_16kb_budget(self):
        buf = buffer(limit_bytes=16 * KB)
        assert buf.capacity_entries == (16 * KB * 8) // 54 == 2427

    def test_append_under_limit(self):
        buf = buffer()
        assert buf.append((1, 0b1))
        assert len(buf) == 1
        assert buf.dropped_entries == 0

    def test_append_over_limit_drops(self):
        buf = buffer(limit_bytes=7)  # one 54-bit entry
        assert buf.append((1, 1))
        assert not buf.append((2, 1))
        assert buf.dropped_entries == 1
        assert len(buf) == 1


class TestAccounting:
    def test_size_bytes_rounds_up_bits(self):
        buf = buffer()
        buf.append((1, 1))
        assert buf.size_bytes == 7  # ceil(54 / 8)
        buf.append((2, 1))
        assert buf.size_bytes == 14  # ceil(108 / 8)

    def test_size_of_many_entries(self):
        buf = buffer(limit_bytes=16 * KB)
        for region in range(100):
            assert buf.append((region, 1))
        assert buf.size_bytes == -(-100 * 54 // 8)

    def test_re_recorded_region_keeps_every_entry(self):
        buf = buffer()
        buf.append((1, 0b01))
        buf.append((2, 0b01))
        buf.append((1, 0b10))  # re-recorded region
        assert len(buf) == 3
        assert buf.size_bytes == -(-3 * 54 // 8)
        assert buf.encoded_blocks() == {1 * KB, 1 * KB + 64, 2 * KB}

    def test_encoded_blocks_deduplicates(self):
        buf = buffer()
        buf.append((0, 0b11))
        buf.append((0, 0b10))  # overlapping second entry
        assert buf.encoded_blocks() == {0, 64}

    def test_iteration_preserves_order(self):
        buf = buffer()
        entries = [(5, 1), (3, 2), (9, 4)]
        for e in entries:
            buf.append(e)
        assert list(buf) == entries

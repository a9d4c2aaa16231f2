"""Tests for the Jukebox record phase."""

from repro.core.metadata import MetadataBuffer
from repro.core.recorder import JukeboxRecorder, record_miss_stream
from repro.core.regions import RegionGeometry
from repro.sim.memory import MainMemory
from repro.sim.params import JukeboxParams, MemoryParams
from repro.sim.stats import MemoryTraffic
from repro.units import KB, LINE_SIZE


def make_recorder(metadata_bytes=4 * KB, crrb_entries=4, memory=None):
    params = JukeboxParams(crrb_entries=crrb_entries,
                           metadata_bytes=metadata_bytes)
    buf = MetadataBuffer(geometry=RegionGeometry(params.region_size),
                         limit_bytes=metadata_bytes)
    return JukeboxRecorder(params, buf, memory=memory)


class TestRecordLogic:
    def test_misses_coalesce_in_crrb_before_writing(self):
        rec = make_recorder()
        for line in range(4):
            rec.on_l2_inst_miss(1024 + line * LINE_SIZE, 0.0)
        assert rec.entries_written == 0  # still in the CRRB
        rec.finish()
        assert rec.entries_written == 1

    def test_crrb_overflow_writes_to_buffer(self):
        rec = make_recorder(crrb_entries=2)
        for region in range(5):
            rec.on_l2_inst_miss(region * 1024, 0.0)
        assert rec.entries_written == 3  # 5 regions through a 2-entry CRRB
        rec.finish()
        assert rec.entries_written == 5

    def test_on_fetch_is_ignored(self):
        rec = make_recorder()
        rec.on_fetch(1024, 0.0)
        rec.finish()
        assert len(rec.buffer) == 0

    def test_finish_deactivates(self):
        rec = make_recorder()
        rec.finish()
        assert not rec.active
        rec.on_l2_inst_miss(1024, 0.0)  # ignored after finish
        assert rec.l2_misses_seen == 0

    def test_records_in_temporal_order(self):
        rec = make_recorder(crrb_entries=1)
        for region in (7, 3, 9):
            rec.on_l2_inst_miss(region * 1024, 0.0)
        buf = rec.finish()
        assert [r for r, _v in buf] == [7, 3, 9]

    def test_metadata_write_traffic_charged(self):
        memory = MainMemory(MemoryParams(), MemoryTraffic())
        rec = make_recorder(crrb_entries=1, memory=memory)
        rec.on_l2_inst_miss(0, 0.0)
        rec.on_l2_inst_miss(1024, 0.0)  # evicts entry -> one write
        assert memory.traffic.metadata_record == 7  # ceil(54/8)
        rec.finish()
        assert memory.traffic.metadata_record == 14

    def test_truncation_counts_drops(self):
        rec = make_recorder(metadata_bytes=7, crrb_entries=1)  # one entry
        for region in range(4):
            rec.on_l2_inst_miss(region * 1024, 0.0)
        buf = rec.finish()
        assert len(buf) == 1
        assert buf.dropped_entries == 3


class TestRecordMissStream:
    def test_stream_helper_unbounded_by_default(self):
        stream = [region * 1024 for region in range(100)]
        buf = record_miss_stream(stream, JukeboxParams())
        assert len(buf) == 100
        assert buf.dropped_entries == 0

    def test_bounded_recorder_drops_what_does_not_fit(self):
        """The same stream into a 70-byte buffer keeps ten 7-byte entries."""
        rec = make_recorder(metadata_bytes=70, crrb_entries=16)
        for region in range(100):
            rec.on_l2_inst_miss(region * 1024, 0.0)
        buf = rec.finish()
        assert len(buf) == 10
        assert buf.dropped_entries == 90

    def test_spatial_locality_shrinks_metadata(self):
        """Dense streams coalesce into fewer entries than scattered ones."""
        dense = [i * LINE_SIZE for i in range(256)]           # 16 regions
        sparse = [i * 2048 for i in range(256)]               # 256 regions
        params = JukeboxParams()
        assert len(record_miss_stream(dense, params)) \
            < len(record_miss_stream(sparse, params))

    def test_region_size_tradeoff(self):
        """Bigger regions coalesce more but cost more bits per entry --
        the Fig. 8 trade-off in miniature."""
        stream = [i * LINE_SIZE for i in range(512)]
        small = record_miss_stream(stream, JukeboxParams(region_size=128))
        large = record_miss_stream(stream, JukeboxParams(region_size=8 * KB))
        assert len(small) > len(large)
        # but per-entry cost is larger for the big regions:
        assert large.entry_bits > small.entry_bits

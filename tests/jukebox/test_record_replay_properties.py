"""Property-based tests on the record -> metadata -> replay pipeline."""

from hypothesis import given, settings, strategies as st

from repro.core.metadata import MetadataBuffer
from repro.core.recorder import (JukeboxRecorder, record_miss_stream,
                                 record_miss_stream_merging)
from repro.core.regions import RegionGeometry
from repro.core.replayer import JukeboxReplayer
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import JukeboxParams, skylake
from repro.units import KB, LINE_SHIFT, LINE_SIZE

#: Addresses drawn from a small code area so regions repeat.
addresses = st.lists(
    st.integers(min_value=0, max_value=64 * KB - 1).map(
        lambda a: 0x5555_0000_0000 + (a // LINE_SIZE) * LINE_SIZE),
    min_size=1, max_size=300)

params_strategy = st.builds(
    JukeboxParams,
    crrb_entries=st.sampled_from([1, 4, 16]),
    region_size=st.sampled_from([256, 1 * KB, 4 * KB]),
    metadata_bytes=st.just(64 * KB),
)


class TestRecordProperties:
    @settings(max_examples=40, deadline=None)
    @given(addresses, params_strategy)
    def test_unbounded_recording_is_lossless(self, addrs, params):
        """Every missed block appears in the recorded metadata."""
        buffer = record_miss_stream(addrs, params)
        blocks = buffer.encoded_blocks()
        expected = {(a >> LINE_SHIFT) << LINE_SHIFT for a in addrs}
        assert blocks == expected

    @settings(max_examples=40, deadline=None)
    @given(addresses, params_strategy)
    def test_merging_variant_agrees_on_coverage(self, addrs, params):
        fifo = record_miss_stream(addrs, params)
        merged = record_miss_stream_merging(addrs, params)
        assert fifo.encoded_blocks() == merged.encoded_blocks()

    @settings(max_examples=40, deadline=None)
    @given(addresses, params_strategy)
    def test_merging_never_larger(self, addrs, params):
        fifo = record_miss_stream(addrs, params)
        merged = record_miss_stream_merging(addrs, params)
        assert merged.size_bytes <= fifo.size_bytes

    @settings(max_examples=30, deadline=None)
    @given(addresses)
    def test_bigger_crrb_never_inflates_metadata(self, addrs):
        sizes = []
        for crrb in (1, 8, 32):
            params = JukeboxParams(crrb_entries=crrb)
            sizes.append(len(record_miss_stream(addrs, params)))
        assert sizes[0] >= sizes[1] >= sizes[2]

    @settings(max_examples=30, deadline=None)
    @given(addresses, st.integers(min_value=1, max_value=40))
    def test_bounded_recording_is_a_prefix(self, addrs, limit_entries):
        params = JukeboxParams()
        geometry = RegionGeometry(params.region_size)
        limit_bytes = -(-limit_entries * geometry.entry_bits // 8)
        full = list(record_miss_stream(addrs, params))
        recorder = JukeboxRecorder(
            params, MetadataBuffer(geometry=geometry, limit_bytes=limit_bytes))
        for vaddr in addrs:
            recorder.on_l2_inst_miss(vaddr, 0.0)
        bounded_buf = recorder.finish()
        bounded = list(bounded_buf)
        assert bounded == full[: len(bounded)]
        assert len(bounded) <= bounded_buf.capacity_entries


class TestReplayProperties:
    @settings(max_examples=25, deadline=None)
    @given(addresses, params_strategy)
    def test_replay_prefetches_exactly_the_recorded_blocks(self, addrs,
                                                           params):
        buffer = record_miss_stream(addrs, params)
        hier = MemoryHierarchy(skylake())
        replayer = JukeboxReplayer(hier)
        stats = replayer.replay(buffer)
        scheduled = {b << LINE_SHIFT for b in hier.l2_fills.inflight}
        assert scheduled == buffer.encoded_blocks()
        assert stats.lines_prefetched == len(scheduled)

    @settings(max_examples=25, deadline=None)
    @given(addresses)
    def test_replayed_blocks_land_in_l2_after_drain(self, addrs):
        params = JukeboxParams()
        buffer = record_miss_stream(addrs, params)
        hier = MemoryHierarchy(skylake())
        JukeboxReplayer(hier).replay(buffer)
        hier.finish_invocation()
        for block_addr in buffer.encoded_blocks():
            assert hier.l2.contains(block_addr >> LINE_SHIFT)

    @settings(max_examples=25, deadline=None)
    @given(addresses)
    def test_completions_monotone_in_schedule_order(self, addrs):
        buffer = record_miss_stream(addrs, JukeboxParams())
        hier = MemoryHierarchy(skylake())
        JukeboxReplayer(hier).replay(buffer)
        completions = [c for c, _b in hier.l2_fills._schedule]
        assert completions == sorted(completions)

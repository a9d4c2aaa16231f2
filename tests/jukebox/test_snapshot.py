"""Tests for Jukebox metadata snapshotting (Sec. 3.4.2)."""

import pytest

from repro.core.jukebox import Jukebox
from repro.errors import MetadataError
from repro.sim.core import Simulator
from repro.sim.params import JukeboxParams, skylake
from repro.units import KB
from tests.jukebox.snapshot_oracle import (
    MetadataSnapshot,
    restore_jukebox,
    snapshot_jukebox,
)


def record_one_invocation(trace):
    core = Simulator(skylake())
    jukebox = Jukebox(JukeboxParams())
    core.flush_microarch_state()
    jukebox.begin_invocation(core.hierarchy)
    result = core.run(trace)
    jukebox.end_invocation(core.hierarchy, result)
    return jukebox


class TestSnapshotRoundTrip:
    def test_empty_jukebox_has_no_snapshot(self):
        assert snapshot_jukebox(Jukebox(JukeboxParams())) is None

    def test_capture_after_recording(self, tiny_traces):
        jukebox = record_one_invocation(tiny_traces[0])
        snapshot = snapshot_jukebox(jukebox)
        assert snapshot is not None
        assert snapshot.n_entries > 0
        assert snapshot.region_size == 1 * KB

    def test_serialize_deserialize_roundtrip(self, tiny_traces):
        snapshot = snapshot_jukebox(record_one_invocation(tiny_traces[0]))
        blob = snapshot.serialize()
        restored = MetadataSnapshot.deserialize(blob)
        assert restored.entries == snapshot.entries
        assert restored.region_size == snapshot.region_size
        assert restored.architectural_bytes == snapshot.architectural_bytes

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(MetadataError):
            MetadataSnapshot.deserialize(b"nope")
        with pytest.raises(MetadataError):
            MetadataSnapshot.deserialize(b"XXXX" + bytes(10))

    def test_deserialize_rejects_truncated_body(self, tiny_traces):
        blob = snapshot_jukebox(record_one_invocation(tiny_traces[0])) \
            .serialize()
        with pytest.raises(MetadataError):
            MetadataSnapshot.deserialize(blob[:-3])


class TestColdStartAcceleration:
    def test_restored_instance_replays_on_first_invocation(self, tiny_traces):
        snapshot = snapshot_jukebox(record_one_invocation(tiny_traces[0]))
        fresh = restore_jukebox(snapshot)
        assert fresh.has_replay_metadata

        core = Simulator(skylake())
        core.flush_microarch_state()
        stats = fresh.begin_invocation(core.hierarchy)
        assert stats.lines_prefetched > 0

    def test_restored_first_invocation_is_faster(self, tiny_traces):
        trace = tiny_traces[1]
        snapshot = snapshot_jukebox(record_one_invocation(tiny_traces[0]))

        # Cold boot without snapshot metadata.
        cold_core = Simulator(skylake())
        cold = cold_core.run(trace)

        # Cold boot restored from snapshot: replay covers the fetch storm.
        warm_core = Simulator(skylake())
        jukebox = restore_jukebox(snapshot)
        jukebox.begin_invocation(warm_core.hierarchy)
        accelerated = warm_core.run(trace)
        jukebox.end_invocation(warm_core.hierarchy, accelerated)

        assert accelerated.cycles < 0.9 * cold.cycles

    def test_restore_rejects_mismatched_region_size(self, tiny_traces):
        snapshot = snapshot_jukebox(record_one_invocation(tiny_traces[0]))
        with pytest.raises(MetadataError):
            restore_jukebox(snapshot, JukeboxParams(region_size=2 * KB))

    def test_restore_respects_budget(self, tiny_traces):
        snapshot = snapshot_jukebox(record_one_invocation(tiny_traces[0]))
        tight = restore_jukebox(
            snapshot, JukeboxParams(metadata_bytes=256))
        assert tight.replay_metadata_bytes <= 256

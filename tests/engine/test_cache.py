"""ResultCache: roundtrips, eviction of unreadable entries, hygiene."""

from __future__ import annotations

import pickle

from repro.engine import ResultCache
from repro.obs.tracer import Tracer

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestRoundtrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        hit, value = cache.get(KEY)
        assert not hit and value is None
        cache.put(KEY, {"cpi": 1.25})
        hit, value = cache.get(KEY)
        assert hit and value == {"cpi": 1.25}

    def test_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(KEY, 1)
        assert cache.path_for(KEY) == tmp_path / "c" / "ab" / f"{KEY}.pkl"
        assert cache.path_for(KEY).exists()

    def test_overwrite_is_atomic_last_writer_wins(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(KEY, "first")
        cache.put(KEY, "second")
        assert cache.get(KEY) == (True, "second")
        # No temp files left behind.
        assert not list((tmp_path / "c").rglob("*.tmp"))

    def test_trace_counts(self, tmp_path):
        tracer = Tracer()
        cache = ResultCache(tmp_path / "c", tracer=tracer)
        cache.get(KEY)
        cache.put(KEY, 1)
        cache.get(KEY)
        assert tracer.counts == {"cache.hit": 1, "cache.miss": 1,
                                 "cache.store": 1}


class TestStaleEntries:
    def test_corrupt_entry_is_evicted_and_counted(self, tmp_path):
        tracer = Tracer()
        cache = ResultCache(tmp_path / "c", tracer=tracer)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        hit, value = cache.get(KEY)
        assert not hit and value is None
        assert tracer.counts == {"cache.miss": 1, "cache.quarantine": 1}
        assert not path.exists()  # evicted, slot free for a rewrite

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(KEY, list(range(1000)))
        path = cache.path_for(KEY)
        path.write_bytes(path.read_bytes()[:10])
        hit, _ = cache.get(KEY)
        assert not hit

    def test_entry_from_removed_class_is_a_miss(self, tmp_path):
        """A payload pickled against a class that no longer imports must
        degrade to a miss (the simulator re-runs), never crash the sweep."""
        cache = ResultCache(tmp_path / "c")
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        # GLOBAL opcode referencing a module that does not exist.
        path.write_bytes(b"crepro.engine.nowhere\nEphemeral\n.")
        hit, _ = cache.get(KEY)
        assert not hit
        assert cache.quarantine_path_for(KEY).exists()


class TestHygiene:
    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert len(cache) == 0
        cache.put(KEY, 1)
        cache.put(OTHER, 2)
        assert len(cache) == 2

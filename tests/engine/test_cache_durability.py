"""Durable-cache contract: framing, locking, degrade, reaping, quarantine."""

from __future__ import annotations

import errno
import os
import pickle
import subprocess
import sys

import pytest

from repro.engine import (
    CacheEntryError,
    CacheLock,
    ResultCache,
    check_entry,
    decode_entry,
    encode_entry,
)
from repro.engine.cache import _tmp_pid
from repro.engine.job import SCHEMA_VERSION
from repro.errors import ConfigurationError
from repro.obs.tracer import Tracer
from tests.obs.capture import CaptureSink

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def dead_pid() -> int:
    """A pid guaranteed to have exited (a just-reaped child's)."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    assert proc.wait() == 0
    # The child is wait()ed, so its pid no longer signals as alive
    # (barring pid reuse inside this test's lifetime, which would need
    # a full wraparound of the pid space).
    return proc.pid if not _pid_probe(proc.pid) else 2 ** 22 - 1


def _pid_probe(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


class TestFraming:
    def test_roundtrip(self):
        blob = encode_entry({"cpi": 1.25, "runs": [1, 2]})
        assert decode_entry(blob) == {"cpi": 1.25, "runs": [1, 2]}

    def test_header_carries_format_and_schema(self):
        header = encode_entry(1).split(b"\n", 1)[0].decode()
        magic, fmt, schema, digest, length = header.split(" ")
        assert magic == "repro-cache"
        assert fmt == "1"
        assert schema == str(SCHEMA_VERSION)
        assert len(digest) == 64
        assert int(length) > 0

    def test_bad_magic_is_rejected(self):
        with pytest.raises(CacheEntryError, match="frame header"):
            check_entry(b"garbage that is not a frame\n123")

    def test_legacy_unframed_pickle_is_rejected(self):
        # Pre-frame caches stored bare pickles; they must read as
        # damaged (recompute), never be trusted.
        with pytest.raises(CacheEntryError, match="frame header"):
            check_entry(pickle.dumps({"cpi": 1.0}))

    def test_unknown_frame_format_is_rejected(self):
        blob = encode_entry(1).replace(b" 1 ", b" 9 ", 1)
        with pytest.raises(CacheEntryError, match="format"):
            check_entry(blob)

    def test_foreign_schema_is_rejected(self):
        good = encode_entry(1)
        header, payload = good.split(b"\n", 1)
        parts = header.decode().split(" ")
        parts[2] = str(SCHEMA_VERSION + 999)
        blob = " ".join(parts).encode() + b"\n" + payload
        with pytest.raises(CacheEntryError, match="schema"):
            check_entry(blob)

    def test_truncated_payload_is_a_torn_write(self):
        blob = encode_entry(list(range(100)))
        with pytest.raises(CacheEntryError, match="torn write"):
            check_entry(blob[:-5])

    def test_flipped_payload_byte_fails_the_digest(self):
        blob = bytearray(encode_entry(list(range(100))))
        blob[-1] ^= 0xFF
        with pytest.raises(CacheEntryError, match="digest mismatch"):
            check_entry(bytes(blob))


class TestCacheLock:
    def test_shared_holders_coexist(self, tmp_path):
        first, second = CacheLock(tmp_path), CacheLock(tmp_path)
        assert first.acquire()
        assert second.acquire()
        assert first.mode == second.mode == "shared"
        first.release(), second.release()

    def test_exclusive_probe_fails_while_shared_held(self, tmp_path):
        sweep, fsck_lock = CacheLock(tmp_path), CacheLock(tmp_path)
        assert sweep.acquire(exclusive=False)
        try:
            assert not fsck_lock.acquire(exclusive=True, blocking=False)
            assert not fsck_lock.held
        finally:
            sweep.release()
        assert fsck_lock.acquire(exclusive=True, blocking=False)
        fsck_lock.release()

    def test_double_acquire_is_a_configuration_error(self, tmp_path):
        lock = CacheLock(tmp_path)
        assert lock.acquire()
        with pytest.raises(ConfigurationError, match="already held"):
            lock.acquire()
        lock.release()

    def test_release_is_idempotent(self, tmp_path):
        lock = CacheLock(tmp_path)
        lock.release()  # never acquired: no-op
        assert not lock.held


class TestStoreDegradation:
    def test_induced_enospc_degrades_to_no_store(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.induce_store_error(errno.ENOSPC)
        with pytest.warns(RuntimeWarning, match="cannot store"):
            assert not cache.put(KEY, 1)
        assert cache.stores_disabled
        assert not cache.path_for(KEY).exists()
        assert cache.get(KEY) == (False, None)  # nothing landed

    def test_degraded_cache_warns_exactly_once(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.induce_store_error(errno.EACCES)
        with pytest.warns(RuntimeWarning):
            cache.put(KEY, 1)
        # Later stores are silent no-ops, not repeat warnings.
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert not cache.put(OTHER, 2)
        assert len(cache) == 0

    def test_lookups_survive_store_degradation(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(KEY, "kept")
        cache.induce_store_error(errno.ENOSPC)
        with pytest.warns(RuntimeWarning):
            cache.put(OTHER, "lost")
        assert cache.get(KEY) == (True, "kept")

    def test_store_failure_emits_trace_event(self, tmp_path):
        sink = CaptureSink()
        cache = ResultCache(tmp_path / "c", tracer=Tracer(sinks=[sink]))
        cache.induce_store_error(errno.ENOSPC)
        with pytest.warns(RuntimeWarning):
            cache.put(KEY, 1)
        [event] = [e for e in sink.events
                   if e.kind == "cache.store_failed"]
        assert event.fields_dict()["error"] == "OSError"

    def test_failed_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.induce_store_error(errno.ENOSPC)
        with pytest.warns(RuntimeWarning):
            cache.put(KEY, 1)
        assert not list((tmp_path / "c").rglob("*.tmp"))


class TestTempReaping:
    def test_tmp_pid_parsing(self, tmp_path):
        assert _tmp_pid(tmp_path / f".{KEY}.pkl.1234.tmp") == 1234
        assert _tmp_pid(tmp_path / f".{KEY}.pkl.notanum.tmp") is None
        assert _tmp_pid(tmp_path / f"{KEY}.pkl") is None

    def test_open_reaps_orphans_of_dead_writers(self, tmp_path):
        root = tmp_path / "c"
        slot = root / KEY[:2]
        slot.mkdir(parents=True)
        orphan = slot / f".{KEY}.pkl.{dead_pid()}.tmp"
        orphan.write_bytes(b"half a write")
        cache = ResultCache(root).open()
        try:
            assert not orphan.exists()
            assert not list(root.rglob("*.tmp"))
        finally:
            cache.close()

    def test_open_spares_in_flight_writes_of_live_pids(self, tmp_path):
        root = tmp_path / "c"
        slot = root / KEY[:2]
        slot.mkdir(parents=True)
        # Pid 1 (init) always exists and is never this process.
        in_flight = slot / f".{KEY}.pkl.1.tmp"
        in_flight.write_bytes(b"someone else, mid-write")
        cache = ResultCache(root).open()
        try:
            assert list(root.rglob("*.tmp")) == [in_flight]
        finally:
            cache.close()

    def test_open_reaps_unparseable_temp_names(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        junk = root / ".junk.pkl.notapid.tmp"
        junk.write_bytes(b"?")
        cache = ResultCache(root).open()
        try:
            assert not junk.exists()
        finally:
            cache.close()


class TestQuarantine:
    def test_damaged_entry_is_quarantined_not_served(self, tmp_path):
        tracer = Tracer()
        cache = ResultCache(tmp_path / "c", tracer=tracer)
        cache.put(KEY, list(range(500)))
        cache.tear(KEY)
        hit, value = cache.get(KEY)
        assert not hit and value is None
        assert tracer.counts["cache.quarantine"] == 1
        assert cache.quarantine_path_for(KEY).exists()
        assert not cache.path_for(KEY).exists()

    def test_len_excludes_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(KEY, 1)
        cache.put(OTHER, 2)
        cache.tear(KEY)
        cache.get(KEY)  # quarantines
        assert len(cache) == 1

    def test_quarantined_slot_recovers_on_rewrite(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(KEY, "v1")
        cache.tear(KEY)
        cache.get(KEY)
        assert cache.put(KEY, "v2")
        assert cache.get(KEY) == (True, "v2")

    def test_quarantine_emits_trace_event(self, tmp_path):
        sink = CaptureSink()
        cache = ResultCache(tmp_path / "c", tracer=Tracer(sinks=[sink]))
        cache.put(KEY, 1)
        cache.tear(KEY)
        cache.get(KEY)
        kinds = [e.kind for e in sink.events]
        assert "cache.quarantine" in kinds

    def test_tear_and_corrupt_ignore_absent_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert not cache.tear(KEY)
        assert not cache.corrupt(KEY)


class TestLifecycle:
    def test_open_takes_and_close_releases_the_shared_lock(self, tmp_path):
        sink = CaptureSink()
        cache = ResultCache(tmp_path / "c", tracer=Tracer(sinks=[sink]))
        cache.open()
        assert cache.lock.held and cache.lock.mode == "shared"
        cache.close()
        assert not cache.lock.held
        actions = [e.fields_dict()["action"] for e in sink.events
                   if e.kind == "cache.lock"]
        assert actions == ["acquire", "release"]

    def test_open_is_reentrant(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.open()
        cache.open()  # second open: no double-acquire error
        assert cache.lock.held
        cache.close()

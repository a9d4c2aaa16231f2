"""Content-addressed on-disk memoization of simulation results.

Entries are framed pickled payloads stored under a two-level fanout of
their :meth:`~repro.engine.job.Job.key` (``<root>/<key[:2]>/<key>.pkl``).
The key already encodes every input plus the simulator's source digest,
so the cache never needs an explicit invalidation protocol: a changed
input or a changed simulator simply addresses a different entry.

Durability model (the crash/chaos contract):

* **Framed entries.**  Every entry is a one-line header carrying the
  engine :data:`~repro.engine.job.SCHEMA_VERSION` plus a SHA-256 digest
  and byte length of the pickled payload, followed by the payload
  itself.  A torn write (driver SIGKILLed mid-``os.replace``, disk
  fault, truncation) fails the digest/length check and is *quarantined*,
  never silently served.
* **Atomic writes.**  Temp file + ``os.replace``, so concurrent sweeps
  -- including parallel workers of *different* runs sharing one cache
  directory -- race benignly: last writer wins with an identical
  payload.  Orphaned temp files from crashed writers are reaped when the
  cache is next opened.
* **Quarantine-and-recompute.**  Damaged entries are moved to
  ``<root>/quarantine/`` (evidence for ``python -m repro.engine fsck``)
  and treated as misses, so the cell is transparently recomputed.
* **Advisory locking.**  :class:`CacheLock` holds a cross-process
  ``flock`` on ``<root>/.lock``: sweeps take it *shared* (any number may
  cooperate on one root), ``fsck``/destructive maintenance takes it
  *exclusive* so it never races a live sweep.
* **Store degradation.**  An I/O failure while storing (``ENOSPC``,
  ``EACCES``, any ``OSError``) degrades the cache to no-store mode with
  a single warning and a ``cache.store_failed`` trace event instead of
  aborting the sweep; lookups keep working.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import warnings
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.engine.job import SCHEMA_VERSION
from repro.errors import ConfigurationError, ReproError
from repro.obs import records as _obs

try:  # POSIX advisory file locks; gated so exotic platforms degrade
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    _fcntl = None


class CacheEntryError(ReproError):
    """An on-disk cache entry is damaged or from an incompatible layout."""


#: Exceptions that mean "this entry is unusable", not "the run is broken":
#: truncated writes, pickles from a removed class, protocol drift.
_STALE_ENTRY_ERRORS = (CacheEntryError, OSError, pickle.UnpicklingError,
                       EOFError, AttributeError, ImportError, IndexError,
                       ValueError)


#: Length of the key prefix carried on trace events -- enough to identify
#: a cell in a report without bloating every record with full digests.
_TRACE_KEY_CHARS = 16

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

#: Name of the advisory lock file at the cache root.
LOCK_FILE = ".lock"

# -- Entry framing ----------------------------------------------------------

#: First bytes of every framed entry.
ENTRY_MAGIC = b"repro-cache"

#: Version of the frame layout itself (header + payload), independent of
#: the engine schema version the header also carries.
ENTRY_FORMAT = 1


def encode_entry(value: Any) -> bytes:
    """Frame ``value`` as header + pickled payload.

    The header pins the frame format, the engine schema version, and the
    payload's SHA-256 digest and byte length, so readers (and ``fsck``)
    can verify integrity without trusting the pickle itself.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = (f"{ENTRY_MAGIC.decode()} {ENTRY_FORMAT} {SCHEMA_VERSION} "
              f"{digest} {len(payload)}\n").encode()
    return header + payload


def check_entry(blob: bytes) -> bytes:
    """Verify an entry's frame; return the payload bytes.

    Raises :class:`CacheEntryError` naming the defect: bad magic (also
    the pre-frame legacy layout), unknown frame format, engine schema
    mismatch, truncated payload, or digest mismatch (a torn write).
    """
    newline = blob.find(b"\n")
    if newline < 0 or not blob.startswith(ENTRY_MAGIC + b" "):
        raise CacheEntryError("entry has no repro-cache frame header")
    parts = blob[:newline].decode("ascii", "replace").split(" ")
    if len(parts) != 5:
        raise CacheEntryError(f"malformed frame header {parts!r}")
    _, fmt, schema, digest, length = parts
    if fmt != str(ENTRY_FORMAT):
        raise CacheEntryError(f"unsupported entry frame format {fmt!r}")
    if schema != str(SCHEMA_VERSION):
        raise CacheEntryError(
            f"entry written under engine schema {schema}, current is "
            f"{SCHEMA_VERSION}")
    payload = blob[newline + 1:]
    try:
        expected_len = int(length)
    except ValueError:
        raise CacheEntryError(f"non-integer payload length {length!r}") \
            from None
    if len(payload) != expected_len:
        raise CacheEntryError(
            f"payload is {len(payload)} bytes, header promises "
            f"{expected_len} (torn write)")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CacheEntryError("payload digest mismatch (torn/corrupt write)")
    return payload


def decode_entry(blob: bytes) -> Any:
    """Verify an entry's frame and unpickle its payload."""
    return pickle.loads(check_entry(blob))


# -- Advisory locking -------------------------------------------------------


class CacheLock:
    """A cross-process advisory lock on one cache root.

    Sweeps hold the lock *shared* -- any number of concurrent sweeps may
    cooperate on one cache directory (their atomic writes already
    compose) -- while ``fsck`` and other destructive maintenance hold it
    *exclusive* so they never mutate entries under a live reader.  Backed
    by ``flock`` where available; on platforms without ``fcntl`` the lock
    degrades to a no-op (the atomic-write protocol alone is still safe,
    only maintenance loses its mutual exclusion).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / LOCK_FILE
        self._fh: Optional[Any] = None
        self.mode: Optional[str] = None

    @property
    def held(self) -> bool:
        return self._fh is not None

    def acquire(self, exclusive: bool = False, blocking: bool = True) -> bool:
        """Take the lock; returns False iff non-blocking and contended.

        ``blocking=False`` is the sanctioned way to *probe* for live
        users of a cache root (``fsck`` refuses to run exclusive work
        while a sweep holds the shared lock).
        """
        if self._fh is not None:
            raise ConfigurationError(
                f"cache lock {self.path} is already held ({self.mode})")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+b")
        if _fcntl is not None:
            flags = _fcntl.LOCK_EX if exclusive else _fcntl.LOCK_SH
            if not blocking:
                flags |= _fcntl.LOCK_NB
            try:
                _fcntl.flock(fh.fileno(), flags)
            except OSError:
                fh.close()
                return False
        self._fh = fh
        self.mode = "exclusive" if exclusive else "shared"
        return True

    def release(self) -> None:
        if self._fh is None:
            return
        if _fcntl is not None:
            with contextlib.suppress(OSError):
                _fcntl.flock(self._fh.fileno(), _fcntl.LOCK_UN)
        self._fh.close()
        self._fh = None
        self.mode = None


def _tmp_pid(path: Path) -> Optional[int]:
    """The writer pid embedded in a temp-file name, or None."""
    parts = path.name.rsplit(".", 2)
    if len(parts) == 3 and parts[2] == "tmp":
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but owned elsewhere: leave its file alone
    return True


class ResultCache:
    """A content-addressed framed-pickle store rooted at one directory.

    ``tracer`` is an optionally injected :class:`repro.obs.tracer.Tracer`;
    when present every lookup/store/quarantine emits a typed trace event.
    The cache never creates a tracer itself -- it observes through
    whatever the engine context wired in.

    :meth:`open` (called by ``engine.configure``) reaps orphaned temp
    files and takes the shared advisory lock; a cache constructed and
    used directly (tests, benchmarks) works without ever being opened.
    """

    def __init__(self, root: Union[str, Path],
                 tracer: Optional[Any] = None) -> None:
        self.root = Path(root)
        self.tracer = tracer
        self.lock = CacheLock(self.root)
        #: Set once a store fails; later stores become silent no-ops.
        self.stores_disabled = False
        self._store_warned = False
        #: One-shot injected errno for the next store (fault harness).
        self._induced_store_errno: Optional[int] = None

    def _emit(self, kind: str, key: str = "", **fields: Any) -> None:
        if self.tracer is not None and self.tracer.enabled:
            if key:
                fields["key"] = key[:_TRACE_KEY_CHARS]
            self.tracer.emit(kind, **fields)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def quarantine_path_for(self, key: str) -> Path:
        return self.root / QUARANTINE_DIR / f"{key}.quarantined"

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> "ResultCache":
        """Prepare the root for a sweep: reap orphans, take the lock.

        Reaping only removes temp files whose embedded writer pid is no
        longer alive (or unparseable) -- an in-flight write from a live
        concurrent sweep is left untouched.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        for tmp in sorted(self.root.rglob("*.tmp")):
            pid = _tmp_pid(tmp)
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                continue
            if pid == os.getpid():
                continue  # our own in-flight write (re-entrant open)
            with contextlib.suppress(OSError):
                tmp.unlink()
        if not self.lock.held:
            self.lock.acquire(exclusive=False, blocking=True)
            self._emit(_obs.CACHE_LOCK, mode="shared", action="acquire")
        return self

    def close(self) -> None:
        """Release the advisory lock (lookups/stores remain usable)."""
        if self.lock.held:
            self.lock.release()
            self._emit(_obs.CACHE_LOCK, mode="shared", action="release")

    # -- lookups and stores -------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a miss returns ``(False, None)``."""
        path = self.path_for(key)
        try:
            value = decode_entry(path.read_bytes())
        except FileNotFoundError:
            self._emit(_obs.CACHE_MISS, key)
            return False, None
        except _STALE_ENTRY_ERRORS as exc:
            # Entry is corrupt, torn, or predates a layout change: move it
            # aside so the slot is recomputed and fsck can inspect it.
            self._quarantine(key, path, reason=type(exc).__name__)
            self._emit(_obs.CACHE_MISS, key)
            return False, None
        self._emit(_obs.CACHE_HIT, key)
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store one entry; returns whether the entry landed on disk.

        Any ``OSError`` (``ENOSPC``, ``EACCES``, a vanished mount, ...)
        degrades the cache to no-store mode: one warning, one
        ``cache.store_failed`` trace event, and every later ``put``
        becomes a silent no-op.  The sweep itself continues -- results
        simply stop being memoized.
        """
        if self.stores_disabled:
            return False
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            if self._induced_store_errno is not None:
                code = self._induced_store_errno
                self._induced_store_errno = None
                raise OSError(code, os.strerror(code), str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(encode_entry(value))
            os.replace(tmp, path)
        except OSError as exc:
            self._degrade_stores(key, exc)
            return False
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
        self._emit(_obs.CACHE_STORE, key)
        return True

    def _degrade_stores(self, key: str, exc: OSError) -> None:
        self.stores_disabled = True
        self._emit(_obs.CACHE_STORE_FAILED, key,
                   error=type(exc).__name__, detail=str(exc))
        if not self._store_warned:
            self._store_warned = True
            warnings.warn(
                f"result cache at {self.root} cannot store entries "
                f"({type(exc).__name__}: {exc}); continuing without "
                f"memoization for the rest of this run",
                RuntimeWarning, stacklevel=3)

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        destination = self.quarantine_path_for(key)
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            # Quarantine area unusable (e.g. read-only root): fall back
            # to plain eviction so the damaged entry cannot be re-served.
            with contextlib.suppress(OSError):
                path.unlink()
            self._emit(_obs.CACHE_EVICT, key, reason=reason)
            return
        self._emit(_obs.CACHE_QUARANTINE, key, reason=reason)

    # -- fault-injection hooks ----------------------------------------------

    def corrupt(self, key: str) -> bool:
        """Overwrite an existing entry with unpicklable garbage.

        A fault-injection hook (``corrupt`` faults in :mod:`repro.faults`)
        used to exercise the quarantine-on-corruption path in :meth:`get`.
        Returns whether an entry existed to corrupt; absent entries are
        left absent so the fault degenerates to an ordinary miss.
        """
        path = self.path_for(key)
        if not path.exists():
            return False
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupted-by-fault-injection")
        self._emit(_obs.CACHE_CORRUPT, key)
        return True

    def tear(self, key: str) -> bool:
        """Truncate an existing entry mid-payload (a simulated torn write).

        The ``torn`` disk fault: the frame header survives but the
        payload is cut short, exactly what a crash between ``write`` and
        ``os.replace`` -- or a dying disk -- leaves behind.  Detected by
        the length/digest check on the next read and by ``fsck``.
        """
        path = self.path_for(key)
        if not path.exists():
            return False
        blob = path.read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[:max(1, len(blob) // 2)])
        self._emit(_obs.CACHE_CORRUPT, key, reason="torn")
        return True

    def induce_store_error(self, errno_code: int) -> None:
        """Arm a one-shot ``OSError`` for the next :meth:`put`.

        The ``enospc`` disk fault uses this to exercise the real
        store-degradation path without actually filling the disk.
        """
        self._induced_store_errno = errno_code

    # -- hygiene ------------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        quarantine = self.root / QUARANTINE_DIR
        return sum(1 for path in self.root.rglob("*.pkl")
                   if quarantine not in path.parents)

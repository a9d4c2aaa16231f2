"""Jukebox metadata snapshotting (Sec. 3.4.2), the tests' oracle.

Under virtualization, Jukebox metadata lives in guest physical memory and
is therefore part of the VM state: if a function snapshotting technique
(Catalyzer / vHive-style) captures the instance *after* Jukebox recorded an
invocation, restoring the snapshot can immediately replay the metadata and
accelerate the otherwise fully cold first invocation of the restored
instance.

:class:`MetadataSnapshot` is a compact, byte-serializable image of one
metadata buffer; :func:`snapshot_jukebox` captures it from a live
:class:`~repro.core.jukebox.Jukebox` and :func:`restore_jukebox` builds a
fresh Jukebox whose first invocation replays the snapshotted working set.
:class:`InstanceSnapshot` adds that instruction side to the page side of
:class:`~repro.coldstart.model.SnapshotState`.

The spectrum's cold cells run the lukewarm Jukebox sequence instead, so
nothing in ``repro`` restores a snapshot: this module is the oracle the
"cold equals lukewarm" differential tests compare that sequence with.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.coldstart.model import SnapshotState
from repro.coldstart.pages import PageReplayState
from repro.core.jukebox import Jukebox
from repro.core.metadata import MetadataBuffer
from repro.core.regions import RegionGeometry
from repro.errors import ReproError
from repro.sim.params import JukeboxParams

class MetadataError(ReproError):
    """A snapshot image is truncated, foreign, or of an unknown version."""


#: Serialization header: magic, version, region size, entry count.
_HEADER = struct.Struct("<4sHII")
_MAGIC = b"JBX1"
#: One entry: region pointer (u64) + access vector (u64).  The on-disk
#: image is byte-aligned for simplicity; the *architectural* size remains
#: ``geometry.entry_bits`` per entry and is preserved separately.
_ENTRY = struct.Struct("<QQ")


@dataclass(frozen=True)
class MetadataSnapshot:
    """A point-in-time image of one instance's Jukebox replay metadata."""

    region_size: int
    entries: Tuple[Tuple[int, int], ...]
    #: Architectural metadata size (what the buffer occupied in memory).
    architectural_bytes: int

    def serialize(self) -> bytes:
        """Pack into a self-describing byte image (VM snapshot payload)."""
        blob = bytearray(_HEADER.pack(_MAGIC, 1, self.region_size,
                                      len(self.entries)))
        for region, vector in self.entries:
            blob += _ENTRY.pack(region, vector)
        return bytes(blob)

    @classmethod
    def deserialize(cls, blob: bytes) -> "MetadataSnapshot":
        if len(blob) < _HEADER.size:
            raise MetadataError("snapshot image truncated")
        magic, version, region_size, count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise MetadataError(f"bad snapshot magic {magic!r}")
        if version != 1:
            raise MetadataError(f"unsupported snapshot version {version}")
        expected = _HEADER.size + count * _ENTRY.size
        if len(blob) != expected:
            raise MetadataError(
                f"snapshot image has {len(blob)} bytes, expected {expected}")
        entries: List[Tuple[int, int]] = []
        offset = _HEADER.size
        for _ in range(count):
            region, vector = _ENTRY.unpack_from(blob, offset)
            entries.append((region, vector))
            offset += _ENTRY.size
        geometry = RegionGeometry(region_size)
        architectural = -(-count * geometry.entry_bits // 8)
        return cls(region_size=region_size, entries=tuple(entries),
                   architectural_bytes=architectural)

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def to_buffer(self, limit_bytes: int) -> MetadataBuffer:
        """Materialize as a replayable metadata buffer."""
        buffer = MetadataBuffer(geometry=RegionGeometry(self.region_size),
                                limit_bytes=limit_bytes)
        for entry in self.entries:
            buffer.append(entry)
        return buffer


def snapshot_jukebox(jukebox: Jukebox) -> Optional[MetadataSnapshot]:
    """Capture the instance's current replay metadata (None if empty)."""
    buffer = jukebox._replay_buffer
    if buffer is None or len(buffer) == 0:
        return None
    return MetadataSnapshot(
        region_size=jukebox.params.region_size,
        entries=tuple(buffer),
        architectural_bytes=buffer.size_bytes,
    )


def restore_jukebox(snapshot: MetadataSnapshot,
                    params: Optional[JukeboxParams] = None) -> Jukebox:
    """Build a fresh instance's Jukebox pre-armed with snapshot metadata.

    The restored instance's *first* invocation replays the snapshotted
    working set, turning a cold boot's instruction fetch into L2 hits.
    """
    if params is None:
        params = JukeboxParams(region_size=snapshot.region_size)
    if params.region_size != snapshot.region_size:
        raise MetadataError(
            f"snapshot region size {snapshot.region_size} does not match "
            f"configured {params.region_size}")
    jukebox = Jukebox(params)
    jukebox._replay_buffer = snapshot.to_buffer(params.metadata_bytes)
    return jukebox


class InstanceSnapshot(SnapshotState):
    """Composed snapshot of one instance: pages + Jukebox metadata.

    The page side is :class:`~repro.coldstart.model.SnapshotState`'s; the
    instruction side holds the :class:`MetadataSnapshot` image so a
    restore can re-arm the Jukebox replayer captured with the snapshot.
    It agrees with the lukewarm Jukebox sequence only while every
    invocation records something: an empty capture keeps the older
    image, where a lukewarm Jukebox would replay nothing.
    """

    def __init__(self, pages: PageReplayState) -> None:
        super().__init__(pages)
        self.metadata: Optional[MetadataSnapshot] = None

    def capture_metadata(self, jukebox: Jukebox) -> None:
        """Fold the instance's current Jukebox state into the snapshot.

        Keeps the previous image when the Jukebox has recorded nothing
        yet (an empty capture must not erase a useful one).
        """
        snap = snapshot_jukebox(jukebox)
        if snap is not None:
            self.metadata = snap

    def restore_jukebox(self, params: JukeboxParams) -> Jukebox:
        """Instruction-side restore: a Jukebox pre-armed from the image
        (or a fresh one when nothing was captured)."""
        if self.metadata is None:
            return Jukebox(params)
        return restore_jukebox(self.metadata, params)

"""Jukebox's in-memory metadata buffer.

One buffer holds the FIFO-ordered sequence of (region pointer, access
vector) entries recorded during one invocation.  The OS allocates it in
physically contiguous memory and exposes its base/limit through the pair of
architecturally visible registers (Secs. 3.2 and 3.4.1).  The *limit*
register caps the buffer: entries that would overflow it are dropped
(this truncation is why Python/NodeJS functions see lower coverage than Go
functions in Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from repro.core.crrb import Entry
from repro.core.regions import RegionGeometry
from repro.lint import contracts


@dataclass
class MetadataBuffer:
    """A bounded, append-only FIFO of metadata entries."""

    geometry: RegionGeometry
    limit_bytes: int
    _entries: List[Entry] = field(default_factory=list)
    dropped_entries: int = 0

    @property
    def entry_bits(self) -> int:
        return self.geometry.entry_bits

    @property
    def capacity_entries(self) -> int:
        """How many entries fit under the byte limit."""
        return (self.limit_bytes * 8) // self.entry_bits

    def append(self, entry: Entry) -> bool:
        """Append an entry; returns False (and drops it) if full."""
        contracts.check_metadata_entry(entry, self.geometry.lines_per_region)
        if len(self._entries) >= self.capacity_entries:
            self.dropped_entries += 1
            return False
        self._entries.append(entry)
        return True

    def validate(self) -> None:
        """Contract check: entries fit the limit register and every access
        vector encodes at least one line within the region."""
        contracts.check_metadata_buffer(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    @property
    def size_bytes(self) -> int:
        """Bytes of metadata actually stored (rounded up)."""
        return -(-len(self._entries) * self.entry_bits // 8)

    def encoded_blocks(self) -> "set[int]":
        """All block byte addresses encoded across entries (deduplicated)."""
        blocks: "set[int]" = set()
        for region, vector in self._entries:
            blocks.update(self.geometry.expand(region, vector))
        return blocks

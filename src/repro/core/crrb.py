"""The Code Region Reference Buffer (CRRB).

A small fully-associative FIFO that coalesces L2 instruction misses to the
same code region before the entry is written to the in-memory metadata
buffer (Sec. 3.2, Fig. 7a).  Key properties mirrored from the paper:

* lookup by region virtual address; hit sets one bit in the access vector;
* miss evicts the *oldest* entry (FIFO) and allocates a new one;
* an evicted entry is immutable -- a later miss to the same region creates
  a *new* entry, so a region may appear multiple times in the recorded
  trace (this redundancy is what Fig. 8's metadata-size study measures).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.regions import RegionGeometry
from repro.errors import ConfigurationError

#: ``(region_pointer, access_vector)`` as stored in memory.
Entry = Tuple[int, int]


class CRRB:
    """Fully-associative FIFO coalescing buffer."""

    def __init__(self, entries: int, geometry: RegionGeometry) -> None:
        if entries < 1:
            raise ConfigurationError("CRRB needs at least one entry")
        self.capacity = entries
        self.geometry = geometry
        #: region -> access vector, insertion-ordered (FIFO).
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, vaddr: int) -> Optional[Entry]:
        """Record an L2 instruction miss at virtual address ``vaddr``.

        Returns the entry evicted to make room, or None.  Note the FIFO
        order is *allocation* order: hits do not refresh an entry's age.
        """
        geo = self.geometry
        region = geo.region_of(vaddr)
        bit = 1 << geo.line_offset(vaddr)
        if region in self._entries:
            self._entries[region] |= bit
            self.hits += 1
            return None
        evicted: Optional[Entry] = None
        if len(self._entries) >= self.capacity:
            evicted = self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[region] = bit
        return evicted

    def drain(self) -> List[Entry]:
        """Evict everything in FIFO order (end of the record phase)."""
        drained = list(self._entries.items())
        self.evictions += len(drained)
        self._entries.clear()
        return drained

"""TLB and page-walk cost model.

TLBs operate on *page numbers* (byte address >> 12).  A miss costs a fixed
page-walk latency; we do not model the page-walk cache hierarchy in detail
(the paper's fetch-latency story is dominated by instruction cache misses,
with I-TLB warming a secondary effect that Jukebox's replay also provides,
Sec. 3.3).
"""

from __future__ import annotations

from typing import List

from repro.sim.params import TLBParams


class TLB:
    """A small set-associative TLB with LRU replacement."""

    def __init__(self, params: TLBParams) -> None:
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self._set_mask = self.num_sets - 1
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def access(self, page: int) -> bool:
        """Translate ``page``.  Returns True on a hit; fills on a miss."""
        lru = self._sets[page & self._set_mask]
        if page in lru:
            if lru[-1] != page:
                lru.remove(page)
                lru.append(page)
            return True
        if len(lru) >= self.assoc:
            lru.pop(0)
        lru.append(page)
        return False

    def warm(self, page: int) -> bool:
        """Pre-populate a translation (Jukebox replay warms the I-TLB).

        Returns True if the translation was already resident.
        """
        lru = self._sets[page & self._set_mask]
        if page in lru:
            return True
        if len(lru) >= self.assoc:
            lru.pop(0)
        lru.append(page)
        return False

    def flush(self) -> None:
        """Invalidate all translations (in place, so aliases stay valid)."""
        for lru in filter(None, self._sets):
            del lru[:]

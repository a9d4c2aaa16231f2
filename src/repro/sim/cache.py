"""Set-associative cache model with LRU replacement.

The cache operates on *block numbers* (byte address >> 6).  It tracks which
resident lines were installed by a prefetcher and not yet referenced, so the
hierarchy can account prefetch hits (coverage) and unused prefetches
(overprediction) for Figs. 11 and 12.

Two pollution primitives support the interleaving experiments:

* :meth:`SetAssocCache.pollute` touches ``n`` distinct synthetic blocks
  through the normal insertion path (exact but O(n));
* :meth:`SetAssocCache.bulk_pollute` applies the statistically equivalent
  per-set eviction count directly (O(sets)), which makes the Fig. 1 IAT
  sweep tractable.  A property-based test checks the two agree in
  distribution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.lint import contracts
from repro.sim.params import CacheParams

#: Tag bit used to mark synthetic pollution lines so they can never collide
#: with real (48-bit virtual address) blocks.
_POLLUTION_BIT = 1 << 60


class SetAssocCache:
    """A set-associative, write-allocate cache with true-LRU replacement."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self._set_mask = self.num_sets - 1
        #: One LRU-ordered list of block tags per set; MRU at the end.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        #: Blocks installed by a prefetcher and not yet demand-referenced.
        self._pf_pending: Set[int] = set()
        #: O(1) residency index mirroring the union of all set lists.
        #: Tags are full block ids (not per-set tags), so a block is
        #: resident in the cache iff it is in this set.  Every membership
        #: mutation below maintains it; LRU reordering does not touch it.
        self._resident: Set[int] = set()
        self._pollution_seq = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def lookup(self, block: int) -> Tuple[bool, bool]:
        """Demand-look up ``block``.

        Returns ``(hit, was_prefetched)`` where ``was_prefetched`` is True
        when this is the first demand reference to a prefetched line.
        Updates LRU order on a hit; does *not* insert on a miss
        (use :meth:`insert`).
        """
        lru = self._sets[block & self._set_mask]
        if block in lru:
            if lru[-1] != block:
                lru.remove(block)
                lru.append(block)
            if block in self._pf_pending:
                self._pf_pending.discard(block)
                return True, True
            return True, False
        return False, False

    def contains(self, block: int) -> bool:
        """Return True if ``block`` is resident (no LRU side effects)."""
        return block in self._resident

    def insert(self, block: int, prefetch: bool = False) -> Tuple[Optional[int], bool]:
        """Install ``block`` as the MRU line of its set.

        Returns ``(evicted_block, evicted_unused_prefetch)``.  Inserting an
        already-resident block refreshes its LRU position (and its prefetch
        flag, if ``prefetch`` is False, is cleared: a demand insert of a
        prefetched line counts as its use).
        """
        lru = self._sets[block & self._set_mask]
        evicted: Optional[int] = None
        evicted_unused = False
        if block in lru:
            lru.remove(block)
            lru.append(block)
            if not prefetch:
                self._pf_pending.discard(block)
            return None, False
        if len(lru) >= self.assoc:
            evicted = lru.pop(0)
            self._resident.discard(evicted)
            if evicted in self._pf_pending:
                self._pf_pending.discard(evicted)
                evicted_unused = True
        lru.append(block)
        self._resident.add(block)
        if prefetch:
            self._pf_pending.add(block)
        return evicted, evicted_unused

    # ------------------------------------------------------------------
    # Residency queries for the columnar backend (repro.sim.batch)
    #
    # The batch interpreter proves a bulk walk class's preconditions
    # (residency, prefetch-flag disjointness) with these before charging
    # a walk in bulk; the cache updates themselves are the lookup() and
    # insert() steps above, transcribed block by block.
    # ------------------------------------------------------------------

    def contains_all(self, blocks: Sequence[int]) -> bool:
        """True when every block is resident (no LRU side effects)."""
        return self._resident.issuperset(blocks)

    def contains_none(self, blocks: Sequence[int]) -> bool:
        """True when no block is resident (no LRU side effects)."""
        return self._resident.isdisjoint(blocks)

    def pf_disjoint(self, blocks: frozenset) -> bool:
        """True when no block carries a pending prefetch flag."""
        pf = self._pf_pending
        return not pf or pf.isdisjoint(blocks)

    def invalidate_unused_prefetches(self) -> int:
        """Invalidate every resident prefetched-but-unreferenced line.

        Used to model stream-prefetcher squash on divergence: lines brought
        in for a stream that turned out wrong are dead weight.  Returns the
        number of lines dropped.
        """
        dropped = 0
        for block in list(self._pf_pending):
            lru = self._sets[block & self._set_mask]
            if block in lru:
                lru.remove(block)
                self._resident.discard(block)
                dropped += 1
        self._pf_pending.clear()
        return dropped

    def clear_prefetch_flag(self, block: int) -> bool:
        """Mark a prefetched line as used (e.g. its copy in another level
        was demand-referenced).  Returns True if the flag was set."""
        if block in self._pf_pending:
            self._pf_pending.discard(block)
            return True
        return False

    def flush(self) -> int:
        """Invalidate every line.  Returns the number of lines dropped."""
        self.check_invariants()
        dropped = sum(map(len, self._sets))
        if dropped:
            # Clear in place (iterating only the non-empty sets via the
            # C-level filter) rather than reallocating num_sets lists:
            # large caches are mostly empty at flush time, and in-place
            # clearing keeps any outstanding aliases to the set lists
            # valid.
            for lru in filter(None, self._sets):
                del lru[:]
        self._pf_pending.clear()
        self._resident.clear()
        return dropped

    def check_invariants(self, deep: bool = False) -> None:
        """Contract check of the structural invariants.

        The cheap O(sets) pass (run on every :meth:`flush`, i.e. once per
        lukewarm invocation) bounds set occupancy and the prefetch-pending
        ledger; ``deep=True`` additionally scans every line for duplicate
        tags within a set and verifies that every pending-prefetch tag is
        actually resident.
        """
        name = self.params.name
        # C-speed scan; the per-set message is only built on violation.
        lens = list(map(len, self._sets))
        occupancy = sum(lens)
        if lens and max(lens) > self.assoc:
            set_idx = next(i for i, n in enumerate(lens) if n > self.assoc)
            contracts.check(
                False,
                f"{name}: set {set_idx} holds {lens[set_idx]} lines but is "
                f"only {self.assoc}-way",
            )
        contracts.check(
            len(self._pf_pending) <= occupancy,
            f"{name}: {len(self._pf_pending)} pending prefetched lines "
            f"exceed the {occupancy} resident lines",
        )
        if deep:
            # Duplicate/misplaced-tag checks come first: a duplicate also
            # desyncs the residency index, and the root cause is the more
            # actionable diagnosis.
            for set_idx, lru in enumerate(self._sets):
                contracts.check(
                    len(set(lru)) == len(lru),
                    f"{name}: duplicate tag within set {set_idx}",
                )
                for block in lru:
                    contracts.check(
                        (block & self._set_mask) == set_idx,
                        f"{name}: block {block:#x} resident in set {set_idx} "
                        f"but maps to set {block & self._set_mask}",
                    )
        contracts.check(
            len(self._resident) == occupancy,
            f"{name}: residency index holds {len(self._resident)} tags "
            f"for {occupancy} resident lines",
        )
        if deep:
            actual: Set[int] = set()
            for lru in self._sets:
                actual.update(lru)
            contracts.check(
                actual == self._resident,
                f"{name}: residency index out of sync with the set lists",
            )
            contracts.check(
                self._pf_pending <= actual,
                f"{name}: prefetch-pending ledger references evicted lines",
            )

    # ------------------------------------------------------------------
    # Pollution primitives for interleaving experiments
    # ------------------------------------------------------------------

    def pollute(self, n_blocks: int) -> None:
        """Insert ``n_blocks`` distinct synthetic blocks (exact, O(n)).

        The synthetic tags are guaranteed never to collide with real blocks
        and are spread round-robin across sets, modeling another tenant's
        streaming footprint.
        """
        for _ in range(n_blocks):
            self._pollution_seq += 1
            fake = _POLLUTION_BIT | (self._pollution_seq * 0x9E3779B1 & 0xFFFFFFFF)
            fake = (fake & ~self._set_mask) | (self._pollution_seq & self._set_mask)
            self.insert(fake)

    def bulk_pollute(self, n_blocks: int, rng: Optional[np.random.Generator] = None) -> None:
        """Statistically equivalent pollution in O(sets).

        ``n_blocks`` random distinct insertions land on sets ~uniformly; we
        draw the per-set insertion count from Poisson(n/sets) and evict that
        many LRU lines per set, installing synthetic lines in their place
        (capped at the associativity: more insertions than ways just churn
        the synthetic lines themselves).
        """
        if n_blocks <= 0:
            return
        lam = n_blocks / self.num_sets
        if rng is None:
            rng = np.random.default_rng(0xC0FFEE ^ n_blocks)
        counts = rng.poisson(lam, self.num_sets)
        assoc = self.assoc
        for set_idx in range(self.num_sets):
            k = int(counts[set_idx])
            if k <= 0:
                continue
            # Inserting more than occupancy+assoc lines only churns the
            # synthetic lines themselves.
            lru = self._sets[set_idx]
            k = min(k, assoc + len(lru))
            for _ in range(k):
                if len(lru) >= assoc:
                    victim = lru.pop(0)
                    self._resident.discard(victim)
                    if victim in self._pf_pending:
                        self._pf_pending.discard(victim)
                self._pollution_seq += 1
                fake = _POLLUTION_BIT | (self._pollution_seq << 12) | set_idx
                lru.append(fake)
                self._resident.add(fake)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache({self.params.name}, {self.params.size}B, "
            f"{self.assoc}-way, occupancy={len(self._resident)})"
        )

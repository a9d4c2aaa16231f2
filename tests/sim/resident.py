"""What the simulator's set-associative structures hold, read off their
LRU sets without touching the LRU order.

:class:`~repro.sim.cache.SetAssocCache` and :class:`~repro.sim.tlb.TLB`
keep no resident count of their own, and a TLB has no side-effect-free
lookup; tests read both off the sets.
"""


def resident_lines(structure) -> int:
    """Lines (or translations) resident in a cache or a TLB."""
    return sum(len(lru) for lru in structure._sets)


def is_resident(structure, key: int) -> bool:
    """Whether block or page ``key`` is resident in a cache or a TLB."""
    return key in structure._sets[key & structure._set_mask]

"""Property-based tests of ``sim.cache`` LRU invariants.

Pure-stdlib property testing: a seeded ``random.Random`` drives long
random operation sequences against :class:`SetAssocCache` (and the
L1-I/L2 pair inside a :class:`MemoryHierarchy`), asserting structural
invariants after every step.  Failures print the seed so a shrinking
counterexample can be replayed by hand.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.cache import SetAssocCache
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import CacheParams
from repro.units import KB

SEEDS = (0, 1, 2, 3, 4)
OPS_PER_RUN = 800


def tiny_cache() -> SetAssocCache:
    # 4 sets x 4 ways of 64B lines: collisions happen within a few ops.
    return SetAssocCache(CacheParams("T", size=1 * KB, assoc=4, latency=1,
                                     mshrs=4))


def resident_blocks(cache: SetAssocCache) -> set:
    """Every block tag held in some set."""
    return {block for lru in cache._sets for block in lru}


def random_block(rng: random.Random) -> int:
    # A few times the cache's capacity, so hits and misses interleave.
    return rng.randrange(64)


class TestSetAssocCacheProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_preserve_invariants(self, seed):
        """Occupancy never exceeds ways x sets; no set holds duplicates;
        the prefetch-pending set only names resident blocks."""
        rng = random.Random(seed)
        cache = tiny_cache()
        capacity = cache.num_sets * cache.assoc
        for step in range(OPS_PER_RUN):
            op = rng.randrange(5)
            block = random_block(rng)
            if op == 0:
                cache.lookup(block)
            elif op == 1:
                cache.insert(block, prefetch=rng.random() < 0.3)
            elif op == 2:
                cache.clear_prefetch_flag(block)
            elif op == 3 and rng.random() < 0.05:
                cache.flush()
            elif op == 4 and rng.random() < 0.1:
                cache.invalidate_unused_prefetches()
            cache.check_invariants(deep=True)
            assert cache.occupancy <= capacity, f"seed={seed} step={step}"
            for lru in cache._sets:
                assert len(lru) <= cache.assoc, f"seed={seed} step={step}"
                assert len(lru) == len(set(lru)), f"seed={seed} step={step}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_hit_never_evicts(self, seed):
        """Looking up (or re-inserting) a resident block never changes the
        resident set -- only a miss insert may evict."""
        rng = random.Random(seed)
        cache = tiny_cache()
        for _ in range(OPS_PER_RUN // 2):
            cache.insert(random_block(rng), prefetch=rng.random() < 0.3)
        for step in range(OPS_PER_RUN // 2):
            resident = resident_blocks(cache)
            if not resident:
                break
            block = rng.choice(sorted(resident))
            if rng.random() < 0.5:
                hit, _ = cache.lookup(block)
                assert hit
                assert resident_blocks(cache) == resident, (
                    f"seed={seed} step={step}: a hit changed residency")
            else:
                evicted, _ = cache.insert(block)
                assert evicted is None, (
                    f"seed={seed} step={step}: re-insert evicted {evicted}")
                assert resident_blocks(cache) == resident

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lru_victim_is_least_recently_used(self, seed):
        """Filling one set then touching all-but-one block makes that
        untouched block the next victim."""
        rng = random.Random(seed)
        cache = tiny_cache()
        set_index = rng.randrange(cache.num_sets)
        blocks = [set_index + i * cache.num_sets
                  for i in range(cache.assoc)]
        for block in blocks:
            cache.insert(block)
        victim = rng.choice(blocks)
        for block in blocks:
            if block != victim:
                cache.lookup(block)
        newcomer = set_index + cache.assoc * cache.num_sets
        evicted, _ = cache.insert(newcomer)
        assert evicted == victim, f"seed={seed}"


class TestHierarchyInclusionProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fetched_block_resident_in_l1i_and_filled_into_l2(
            self, seed, tiny_machine):
        """After ``access_instr``, the fetched block is always resident in
        L1-I; an L1-I miss also installs the block into L2 (or it was
        already there) -- the cross-level consistency the MPKI accounting
        relies on."""
        rng = random.Random(seed)
        hierarchy = MemoryHierarchy(tiny_machine)
        line = tiny_machine.l1i.line_size
        cycle = 0.0
        for step in range(300):
            addr = rng.randrange(512) * line
            block = addr // line
            was_in_l1i = hierarchy.l1i.contains(block)
            hierarchy.access_instr(addr, cycle)
            cycle += 1.0
            assert hierarchy.l1i.contains(block), (
                f"seed={seed} step={step}: fetched block not in L1-I")
            if not was_in_l1i:
                assert hierarchy.l2.contains(block), (
                    f"seed={seed} step={step}: L1-I miss did not fill L2")
            hierarchy.l1i.check_invariants(deep=True)
            hierarchy.l2.check_invariants(deep=True)

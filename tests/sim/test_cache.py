"""Unit and property tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import SetAssocCache
from repro.sim.params import CacheParams
from repro.units import KB


def small_cache(size=4 * KB, assoc=4) -> SetAssocCache:
    return SetAssocCache(CacheParams("T", size=size, assoc=assoc, latency=1))


def resident_blocks(cache: SetAssocCache) -> set:
    """Every block tag held in some set (synthetic pollution included)."""
    return {block for lru in cache._sets for block in lru}


class TestBasicOperations:
    def test_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.lookup(42)
        assert not hit
        cache.insert(42)
        hit, _ = cache.lookup(42)
        assert hit

    def test_contains_has_no_lru_side_effect(self):
        cache = small_cache(size=256, assoc=4)  # one set
        for block in range(4):
            cache.insert(block * cache.num_sets)
        victim = 0  # LRU
        assert cache.contains(victim)
        # contains() must not refresh LRU: inserting a new block evicts it.
        cache.insert(100 * cache.num_sets)
        assert not cache.contains(victim)

    def test_insert_returns_eviction(self):
        cache = small_cache(size=256, assoc=4)
        blocks = [i * cache.num_sets for i in range(4)]
        for b in blocks:
            evicted, _ = cache.insert(b)
            assert evicted is None
        evicted, _ = cache.insert(99 * cache.num_sets)
        assert evicted == blocks[0]

    def test_lru_order_respects_hits(self):
        cache = small_cache(size=256, assoc=2)
        a, b, c = (i * cache.num_sets for i in (1, 2, 3))
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a)          # a becomes MRU
        evicted, _ = cache.insert(c)
        assert evicted == b

    def test_reinsert_refreshes_lru(self):
        cache = small_cache(size=256, assoc=2)
        a, b, c = (i * cache.num_sets for i in (1, 2, 3))
        cache.insert(a)
        cache.insert(b)
        cache.insert(a)
        evicted, _ = cache.insert(c)
        assert evicted == b

    def test_flush_empties_cache(self):
        cache = small_cache()
        for b in range(32):
            cache.insert(b)
        dropped = cache.flush()
        assert dropped == 32
        assert cache.occupancy == 0

    def test_blocks_map_to_correct_set(self):
        cache = small_cache(size=4 * KB, assoc=4)
        block = 5 * cache.num_sets + 3
        cache.insert(block)
        assert cache.contains(block)
        assert not cache.contains(block + 1)


class TestPrefetchTracking:
    def test_prefetch_hit_reported_once(self):
        cache = small_cache()
        cache.insert(10, prefetch=True)
        hit, was_pf = cache.lookup(10)
        assert hit and was_pf
        hit, was_pf = cache.lookup(10)
        assert hit and not was_pf

    def test_unused_prefetch_eviction_flagged(self):
        cache = small_cache(size=256, assoc=2)
        a, b, c = (i * cache.num_sets for i in (1, 2, 3))
        cache.insert(a, prefetch=True)
        cache.insert(b)
        evicted, unused = cache.insert(c)
        assert evicted == a
        assert unused

    def test_used_prefetch_eviction_not_flagged(self):
        cache = small_cache(size=256, assoc=2)
        a, b, c = (i * cache.num_sets for i in (1, 2, 3))
        cache.insert(a, prefetch=True)
        cache.lookup(a)  # use it
        cache.insert(b)
        evicted, unused = cache.insert(c)
        assert evicted == a
        assert not unused

    def test_demand_reinsert_clears_prefetch_flag(self):
        cache = small_cache()
        cache.insert(10, prefetch=True)
        cache.insert(10)  # demand insert counts as use
        assert not cache._pf_pending

    def test_clear_prefetch_flag(self):
        cache = small_cache()
        cache.insert(10, prefetch=True)
        assert cache.clear_prefetch_flag(10)
        assert not cache.clear_prefetch_flag(10)

    def test_invalidate_unused_prefetches(self):
        cache = small_cache()
        cache.insert(1, prefetch=True)
        cache.insert(2, prefetch=True)
        cache.insert(3)
        cache.lookup(1)  # used
        dropped = cache.invalidate_unused_prefetches()
        assert dropped == 1
        assert cache.contains(1)
        assert not cache.contains(2)
        assert cache.contains(3)

    def test_demand_lookup_clears_prefetch_flag(self):
        cache = small_cache()
        for b in range(5):
            cache.insert(b, prefetch=True)
        assert cache._pf_pending == {0, 1, 2, 3, 4}
        cache.lookup(0)
        assert cache._pf_pending == {1, 2, 3, 4}


class TestPollution:
    def test_pollute_fills_cache(self):
        cache = small_cache()
        cache.pollute(cache.params.num_lines * 2)
        assert cache.occupancy > cache.params.num_lines * 0.5

    def test_pollute_evicts_resident_lines(self):
        cache = small_cache(size=256, assoc=2)
        cache.insert(1)
        cache.pollute(64)
        assert not cache.contains(1)

    def test_pollution_tags_never_collide_with_real_blocks(self):
        cache = small_cache()
        cache.pollute(100)
        for block in resident_blocks(cache):
            assert block >= (1 << 48)  # beyond any 48-bit VA block

    def test_bulk_pollute_zero_is_noop(self):
        cache = small_cache()
        cache.insert(1)
        cache.bulk_pollute(0)
        assert cache.contains(1)

    def test_bulk_pollute_full_thrash(self):
        cache = small_cache()
        for b in range(cache.params.num_lines):
            cache.insert(b)
        rng = np.random.default_rng(1)
        cache.bulk_pollute(cache.params.num_lines * 40, rng)
        survivors = [b for b in range(cache.params.num_lines)
                     if cache.contains(b)]
        assert len(survivors) < cache.params.num_lines * 0.02

    def test_bulk_pollute_partial_survival(self):
        cache = small_cache(size=32 * KB, assoc=8)
        n = cache.params.num_lines
        for b in range(n):
            cache.insert(b)
        rng = np.random.default_rng(2)
        cache.bulk_pollute(n // 2, rng)
        survivors = sum(1 for b in range(n) if cache.contains(b))
        # Expected survival with lambda = assoc/2: well above zero, below all.
        assert 0.3 * n < survivors < 0.95 * n

    def test_bulk_pollute_statistically_matches_exact(self):
        """bulk_pollute is the O(sets) equivalent of exact pollution."""
        rng = np.random.default_rng(3)
        survivals = []
        for mode in ("exact", "bulk"):
            cache = small_cache(size=16 * KB, assoc=8)
            n = cache.params.num_lines
            for b in range(n):
                cache.insert(b)
            if mode == "exact":
                cache.pollute(n)
            else:
                cache.bulk_pollute(n, rng)
            survivals.append(sum(1 for b in range(n) if cache.contains(b)))
        exact, bulk = survivals
        assert abs(exact - bulk) < 0.25 * cache.params.num_lines


class TestCacheProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=300))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        cache = small_cache(size=1 * KB, assoc=2)
        for b in blocks:
            cache.insert(b)
        assert cache.occupancy <= cache.params.num_lines
        for lru in cache._sets:
            assert len(lru) <= cache.assoc
            assert len(set(lru)) == len(lru)  # no duplicate tags in a set

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=200))
    def test_most_recent_insert_always_resident(self, blocks):
        cache = small_cache(size=1 * KB, assoc=2)
        for b in blocks:
            cache.insert(b)
            assert cache.contains(b)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=200)),
                    max_size=300))
    def test_pf_pending_subset_of_resident(self, ops):
        cache = small_cache(size=1 * KB, assoc=2)
        for is_insert, block in ops:
            if is_insert:
                cache.insert(block, prefetch=(block % 3 == 0))
            else:
                cache.lookup(block)
        resident = resident_blocks(cache)
        assert cache._pf_pending <= resident

"""Property battery for :mod:`repro.fleet.result` merging.

Hand-rolled seeded-random loops (no third-party property-testing
dependency): :class:`LatencyHistogram` merge must be associative and
commutative *exactly* -- bin counts are integers, so there is no
tolerance -- and :func:`aggregate_nodes` must report the same
percentiles, latency pairs, and integer tallies whatever order (or
shard grouping) the node results arrive in.

The floating-point sums (``busy_ms``, ``capacity_inv_s``) are
deliberately *not* asserted permutation-invariant: float addition is
not associative, and the fleet pipeline never reorders the node list
it sums over (shards are sorted before aggregation).  The invariants
the sharded/SIGKILL differential battery relies on are the integer
and histogram-derived fields, pinned here.
"""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.fleet.result import LatencyHistogram, aggregate_nodes

SEEDS = (3, 17, 2022)


def random_histogram(rng: random.Random, n: int) -> LatencyHistogram:
    hist = LatencyHistogram()
    for _ in range(n):
        # Span sub-bin-0 clamping through multi-second latencies.
        hist.observe(rng.lognormvariate(1.5, 2.0))
    return hist


def snapshot(hist: LatencyHistogram):
    return (hist.total, tuple(map(tuple, hist.to_pairs())))


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_is_commutative(seed):
    rng = random.Random(seed)
    for _ in range(20):
        a = random_histogram(rng, rng.randrange(0, 400))
        b = random_histogram(rng, rng.randrange(0, 400))
        ab = LatencyHistogram.from_pairs(a.to_pairs())
        ab.merge(b)
        ba = LatencyHistogram.from_pairs(b.to_pairs())
        ba.merge(a)
        assert snapshot(ab) == snapshot(ba)


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_is_associative(seed):
    rng = random.Random(seed * 7 + 1)
    for _ in range(20):
        a, b, c = (random_histogram(rng, rng.randrange(0, 300))
                   for _ in range(3))
        left = LatencyHistogram.from_pairs(a.to_pairs())
        bc = LatencyHistogram.from_pairs(b.to_pairs())
        bc.merge(c)
        left.merge(bc)
        right = LatencyHistogram.from_pairs(a.to_pairs())
        right.merge(b)
        right.merge(c)
        assert snapshot(left) == snapshot(right)


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_matches_observing_everything_at_once(seed):
    rng = random.Random(seed * 13 + 2)
    samples = [rng.lognormvariate(1.0, 1.8) for _ in range(500)]
    whole = LatencyHistogram()
    whole.observe_many(samples)
    cut = rng.randrange(0, len(samples))
    parts = LatencyHistogram()
    parts.observe_many(samples[:cut])
    rest = LatencyHistogram()
    rest.observe_many(samples[cut:])
    parts.merge(rest)
    assert snapshot(parts) == snapshot(whole)
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert parts.percentile(q) == whole.percentile(q)


@pytest.mark.parametrize("seed", SEEDS)
def test_observe_many_bins_like_observe(seed):
    """The one-pass fold lands every latency in ``observe``'s bin,
    sub-bin-0 clamping and bin edges included."""
    rng = random.Random(seed * 11 + 3)
    samples = [rng.lognormvariate(1.0, 2.0) for _ in range(500)]
    samples += [0.0, 1e-4, 1e-3, 10.0 ** (1 / 128 - 3), 1.0, 1e4]
    one_by_one = LatencyHistogram()
    for latency in samples:
        one_by_one.observe(latency)
    folded = LatencyHistogram()
    folded.observe_many(samples)
    assert folded == one_by_one


def test_observe_many_rejects_non_finite_before_counting():
    hist = LatencyHistogram()
    hist.observe_many([1.0, 2.0])
    before = snapshot(hist)
    with pytest.raises(ConfigurationError, match="finite"):
        hist.observe_many([3.0, math.nan])
    assert snapshot(hist) == before


def test_pairs_round_trip_is_canonical():
    rng = random.Random(5)
    hist = random_histogram(rng, 250)
    again = LatencyHistogram.from_pairs(hist.to_pairs())
    assert snapshot(again) == snapshot(hist)
    # Pairs are ascending by bin whatever the insertion order was.
    bins = [idx for idx, _ in hist.to_pairs()]
    assert bins == sorted(bins)


# ---------------------------------------------------------------------------
# aggregate_nodes: shard-order independence.

#: Fields whose aggregate must not depend on node order.  busy_ms and
#: capacity_inv_s are float sums and excluded on purpose (see module
#: docstring).
ORDER_FREE_FIELDS = (
    "nodes", "arrivals", "invocations", "cold_starts", "dropped",
    "evictions", "peak_warm_instances", "peak_memory_bytes",
    "p50_latency_ms", "p99_latency_ms", "latency_pairs",
    "drop_fraction", "warm_fraction",
)


def random_node(rng: random.Random) -> dict:
    arrivals = rng.randrange(1, 2000)
    dropped = rng.randrange(0, arrivals)
    invocations = arrivals - dropped
    hist = random_histogram(rng, invocations)
    return {
        "arrivals": arrivals,
        "invocations": invocations,
        "cold_starts": rng.randrange(0, invocations + 1),
        "dropped": dropped,
        "evictions": rng.randrange(0, 50),
        "busy_ms": rng.uniform(0.0, 1e6),
        "peak_warm_instances": rng.randrange(0, 200),
        "peak_memory_bytes": rng.randrange(0, 1 << 34),
        "capacity_inv_s": rng.uniform(1.0, 500.0),
        "latency_pairs": hist.to_pairs(),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregate_is_shard_order_independent(seed):
    rng = random.Random(seed * 31 + 3)
    nodes = [random_node(rng) for _ in range(rng.randrange(2, 12))]
    base = aggregate_nodes(nodes)
    for _ in range(10):
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        agg = aggregate_nodes(shuffled)
        for field in ORDER_FREE_FIELDS:
            assert agg[field] == base[field], field


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregate_percentiles_match_one_big_histogram(seed):
    """Sharding must be invisible: aggregating per-node histograms gives
    the same percentiles as one histogram over every invocation."""
    rng = random.Random(seed * 37 + 4)
    nodes = [random_node(rng) for _ in range(6)]
    agg = aggregate_nodes(nodes)
    whole = LatencyHistogram()
    for node in nodes:
        whole.merge(LatencyHistogram.from_pairs(node["latency_pairs"]))
    assert agg["p50_latency_ms"] == whole.p50_ms
    assert agg["p99_latency_ms"] == whole.p99_ms
    assert agg["latency_pairs"] == whole.to_pairs()


def test_aggregate_of_empty_nodes_is_quiet():
    node = {
        "arrivals": 0, "invocations": 0, "cold_starts": 0, "dropped": 0,
        "evictions": 0, "busy_ms": 0.0, "peak_warm_instances": 0,
        "peak_memory_bytes": 0, "capacity_inv_s": 0.0, "latency_pairs": [],
    }
    agg = aggregate_nodes([node, dict(node)])
    assert agg["p50_latency_ms"] == 0.0
    assert agg["drop_fraction"] == 0.0
    assert agg["warm_fraction"] == 0.0

"""The server's fixed keep-alive: an instance idle longer than
``ServerConfig.ttl_minutes`` is evicted, one idle exactly that long is
not."""

import math
import random

import pytest

from repro.server.server import ServerConfig, ServerSimulator
from repro.workloads.arrival import ArrivalProcess, make_arrival_process
from repro.workloads.suite import SUITE


class ScriptedArrivals(ArrivalProcess):
    """Replays a fixed list of inter-arrival gaps, then stops arriving."""

    def __init__(self, gaps_ms):
        self._gaps = list(gaps_ms)
        self._next = 0

    def next_iat(self) -> float:
        if self._next == len(self._gaps):
            return math.inf
        gap = self._gaps[self._next]
        self._next += 1
        return gap


@pytest.mark.parametrize("factor,arrivals,cold_starts,evictions", [
    (0.9, 18, 1, 0),
    # An arrival exactly at the TTL finds the instance warm: the expiry
    # pops at the arrival instant, sees idle == TTL, and re-schedules.
    (1.0, 16, 1, 0),
    (1.1, 15, 15, 14),
])
def test_eviction_at_the_ttl_boundary(factor, arrivals, cold_starts,
                                      evictions):
    """One instance invoked every ``factor`` x TTL (a 1.2 s TTL)."""
    sim = ServerSimulator(ServerConfig(cores=2, ttl_minutes=0.02), seed=1)
    sim.add_instance(SUITE[0], make_arrival_process("fixed",
                                                    factor * 1200.0))
    stats = sim.run(20_000.0)
    assert (stats.arrivals, stats.cold_starts, stats.evictions) \
        == (arrivals, cold_starts, evictions)


@pytest.mark.parametrize("factor", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("ttl_minutes", [0.01, 0.02, 0.1, 1.0])
def test_fixed_iat_matches_the_closed_form(ttl_minutes, factor):
    """An instance invoked every ``factor`` x TTL over twelve TTLs: it
    stays warm when ``factor <= 1`` and re-cold-starts on every arrival
    otherwise.  Spanning four TTL scales pins the minutes-to-ms
    conversion (every period here is an exact float)."""
    ttl_ms = ttl_minutes * 60_000.0
    period = factor * ttl_ms
    sim = ServerSimulator(ServerConfig(cores=2, ttl_minutes=ttl_minutes),
                          seed=3)
    sim.add_instance(SUITE[1], make_arrival_process("fixed", period))
    stats = sim.run(12 * ttl_ms)
    n = int(12 / factor)
    assert stats.arrivals == stats.invocations == n
    if factor <= 1.0:
        assert (stats.cold_starts, stats.evictions) == (1, 0)
    else:
        assert (stats.cold_starts, stats.evictions) == (n, n - 1)


@pytest.mark.parametrize("seed", [505, 506, 507, 508, 509, 510])
def test_evicted_iff_idle_gap_exceeds_ttl(seed):
    """Seeded idle gaps on both sides of a 1.2 s TTL, with some exactly
    at it: every gap longer than the TTL costs one eviction and one
    re-cold-start, every other gap finds the instance warm.  Gaps are
    whole milliseconds, so arrival times and idle times are exact."""
    rng = random.Random(seed)
    ttl_ms = 1200
    gaps = [rng.randrange(1, 2 * ttl_ms) for _ in range(40)]
    for at in rng.sample(range(len(gaps)), 5):
        gaps[at] = ttl_ms
    sim = ServerSimulator(ServerConfig(cores=2, ttl_minutes=0.02),
                          seed=seed)
    inst = sim.add_instance(SUITE[2], ScriptedArrivals(gaps))
    stats = sim.run(float(sum(gaps)))
    longer = sum(1 for gap in gaps[1:] if gap > ttl_ms)
    assert stats.arrivals == len(gaps)
    assert stats.iats_ms == [float(gap) for gap in gaps[1:]]
    assert stats.evictions == longer
    assert stats.cold_starts == inst.cold_starts == 1 + longer


@pytest.mark.parametrize("seed", [1, 7, 23, 101])
def test_longer_ttl_never_adds_cold_starts_or_evictions(seed):
    """With memory to spare, an instance cold-starts on its first
    arrival and after every idle gap longer than the TTL; arrival streams
    do not depend on the TTL, so lengthening it can only remove cold
    starts and evictions."""
    cold, evicted = [], []
    for ttl_minutes in (0.005, 0.01, 0.02, 0.05, 0.1):
        sim = ServerSimulator(ServerConfig(cores=10,
                                           ttl_minutes=ttl_minutes),
                              seed=seed)
        sim.populate(SUITE, 30, lambda i, p: make_arrival_process(
            "poisson", 1_000.0, seed=seed * 1000 + i))
        stats = sim.run(20_000.0)
        assert stats.dropped == 0
        cold.append(stats.cold_starts)
        evicted.append(stats.evictions)
    assert cold == sorted(cold, reverse=True), cold
    assert evicted == sorted(evicted, reverse=True), evicted
    assert cold[0] > cold[-1]

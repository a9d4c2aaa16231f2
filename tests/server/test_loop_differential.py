"""The server event loop against its scalar oracle, field for field.

:class:`~tests.server.reference_loop.ReferenceServerSimulator` runs the
loop with a scalar ``exponential`` draw per service time, ``np.argmin``
for the core pick and one TTL-heap push per invocation.  The program's
loop draws service times in blocks, picks the first least-loaded core
with ``list.index(min(...))``, keeps one TTL-heap entry per warm
instance and updates its peaks on admission only.  Both must leave every
:class:`ServerStats` field and every instance's :class:`WarmInstance`
state equal, with floats compared by ``==`` and lists element by
element, after one ``run()`` each (a simulator runs once).

The matrix reaches every branch of the loop: evictions, and an instance
idle exactly the TTL (re-checked just after the expiry instant); drops
on an overcommitted node; a cold-start charge of 0 and 120 ms; 1, 2 and
10 cores, so that several idle cores tie at 0.0; every arrival kind; and
seeds 1 and 4242.
"""

import random

import pytest

from repro.server.server import ServerConfig, ServerSimulator
from repro.workloads.arrival import ARRIVAL_KINDS, FixedIAT, make_arrival_process
from repro.workloads.suite import SUITE
from tests.server.reference_loop import ReferenceServerSimulator
from tests.server.test_keepalive import ScriptedArrivals

#: name -> (ServerConfig fields, instances, mean IAT in ms, duration in ms).
SCENARIOS = {
    # A 1.2 s TTL against 1.2 s mean IATs: idle gaps on both sides of
    # the TTL, and for fixed arrivals every gap exactly the TTL.
    "evicting": ({"ttl_minutes": 0.02}, 24, 1200.0, 15_000.0),
    # About 30 of 100 instances fit in 1 GB: cold arrivals are dropped
    # until a 3 s TTL evicts room for them.
    "overcommitted": ({"memory_gb": 1, "ttl_minutes": 0.05}, 100, 500.0,
                      8_000.0),
}


def assert_same(sim, ref, duration_ms):
    """Run both simulators; every stats field and instance must match."""
    want = ref.run(duration_ms)
    assert sim.run(duration_ms) == want
    assert sim.instances == ref.instances
    return want


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("cold_start_ms", [0.0, 120.0])
@pytest.mark.parametrize("cores", [1, 2, 10])
@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_loop_matches_the_scalar_oracle(kind, seed, cores, cold_start_ms,
                                        scenario):
    fields, instances, mean_iat_ms, duration_ms = SCENARIOS[scenario]
    config = ServerConfig(cores=cores, cold_start_ms=cold_start_ms,
                          **fields)
    sims = [cls(config, seed=seed)
            for cls in (ServerSimulator, ReferenceServerSimulator)]
    for sim in sims:
        sim.populate(SUITE, instances, lambda i, p: make_arrival_process(
            kind, mean_iat_ms, seed=seed * 1000 + i))
    stats = assert_same(*sims, duration_ms)
    if scenario == "overcommitted":
        assert stats.dropped > 0
    elif kind != "fixed":
        assert stats.evictions > 0


@pytest.mark.parametrize("factor", [0.9, 1.0, 1.1])
def test_fixed_gaps_around_the_ttl(factor):
    """One instance invoked every 0.9, 1.0 and 1.1 TTLs: warm, warm at
    the expiry instant, and evicted before every arrival."""
    sims = [cls(ServerConfig(cores=2, ttl_minutes=0.02), seed=1)
            for cls in (ServerSimulator, ReferenceServerSimulator)]
    for sim in sims:
        sim.add_instance(SUITE[0], FixedIAT(factor * 1200.0))
    assert_same(*sims, 20_000.0)


@pytest.mark.parametrize("seed", [505, 506, 507, 508, 509, 510])
def test_scripted_gaps_on_both_sides_of_the_ttl(seed):
    """``test_keepalive.py``'s whole-millisecond idle gaps, five of them
    exactly the 1.2 s TTL, shared by three instances."""
    rng = random.Random(seed)
    gaps = [rng.randrange(1, 2400) for _ in range(40)]
    for at in rng.sample(range(len(gaps)), 5):
        gaps[at] = 1200
    sims = [cls(ServerConfig(cores=2, ttl_minutes=0.02), seed=seed)
            for cls in (ServerSimulator, ReferenceServerSimulator)]
    for sim in sims:
        for profile in SUITE[:3]:
            sim.add_instance(profile, ScriptedArrivals(gaps))
    stats = assert_same(*sims, float(sum(gaps)))
    assert stats.evictions > 0

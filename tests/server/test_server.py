"""Tests for the server-level interleaving model (Sec. 2.2)."""

import copy

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.server.instance import WarmInstance
from repro.server.server import ServerConfig, ServerSimulator
from repro.units import MB
from repro.workloads.arrival import FixedIAT, PoissonArrivals
from repro.workloads.suite import SUITE, get_profile


class TestWarmInstance:
    def test_cold_start_counted(self):
        inst = WarmInstance("i", get_profile("Auth-G"))
        inst.record_invocation(0.0, 0, cold=True)
        assert inst.cold_starts == 1

    def test_memory_includes_runtime_overhead(self):
        inst = WarmInstance("i", get_profile("Auth-G"))
        assert inst.memory_bytes > 20 * MB

    def test_jukebox_metadata_allocation(self):
        inst = WarmInstance("i", get_profile("Auth-G"))
        inst.allocate_jukebox_metadata(16 * 1024)
        assert inst.jukebox_metadata_bytes == 32 * 1024


class TestServerSimulator:
    def test_stats_track_iat_and_interleave_degree(self):
        """A every 1000 ms, B every 300 ms: B300 B600 B900 A1000 B1200
        B1500 B1800 A2000.  Each re-invocation records its gap and the
        other invocations since the same instance's previous one."""
        server = ServerSimulator(ServerConfig(cores=2), seed=1)
        server.add_instance(get_profile("Auth-G"), FixedIAT(1000.0))
        server.add_instance(get_profile("Fib-P"), FixedIAT(300.0))
        stats = server.run(2000.5)
        assert stats.iats_ms == [300.0] * 5 + [1000.0]
        assert stats.interleave_degrees == [0, 0, 1, 0, 0, 3]

    def test_round_robin_arrivals_interleave_every_other_instance(self):
        """Four instances on one period arrive in a fixed rotation, so
        each re-invocation follows exactly the other three."""
        server = ServerSimulator(ServerConfig(cores=2), seed=1)
        for abbrev in ("Auth-G", "Fib-P", "Email-P", "Fib-N"):
            server.add_instance(get_profile(abbrev), FixedIAT(100.0))
        stats = server.run(1000.5)
        assert stats.invocations == 40
        assert stats.interleave_degrees == [3] * 36
        assert stats.iats_ms == [100.0] * 36

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_reinvocation_records_one_gap_and_one_degree(self, seed):
        """A served arrival of an instance served before records one IAT
        and one degree; a first invocation or a dropped arrival records
        neither, evictions notwithstanding."""
        server = self.make_server(instances=30, seed=seed, ttl_minutes=0.02)
        stats = server.run(20_000.0)
        assert stats.evictions > 0
        served = [inst for inst in server.instances.values()
                  if inst.invocations]
        reinvocations = stats.invocations - len(served)
        assert len(stats.iats_ms) == reinvocations
        assert len(stats.interleave_degrees) == reinvocations
        assert all(gap > 0 for gap in stats.iats_ms)
        assert all(0 <= d < stats.invocations
                   for d in stats.interleave_degrees)

    def make_server(self, instances=50, mean_iat=1000.0, seed=1,
                    ttl_minutes=10.0):
        server = ServerSimulator(
            ServerConfig(cores=10, ttl_minutes=ttl_minutes), seed=seed)
        profiles = SUITE
        server.populate(
            profiles, instances,
            lambda i, p: PoissonArrivals(mean_iat, seed=seed * 1000 + i))
        return server

    def test_invocations_happen(self):
        stats = self.make_server().run(20_000.0)
        assert stats.invocations > 500

    def test_duplicate_instance_rejected(self):
        server = ServerSimulator()
        server.add_instance(get_profile("Auth-G"), FixedIAT(100.0), "x")
        with pytest.raises(ConfigurationError):
            server.add_instance(get_profile("Auth-G"), FixedIAT(100.0), "x")

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            self.make_server().run(0.0)

    def test_a_second_run_raises_and_leaves_the_stats(self):
        """One instance every 1000 ms, run for 5000 ms and then 3000 ms:
        the second run would restart time at 0 under the first run's
        warm set and counters (a negative IAT), so it is refused."""
        server = ServerSimulator()
        server.add_instance(get_profile("Auth-G"), FixedIAT(1000.0))
        stats = server.run(5_000.0)
        before = copy.deepcopy(stats)
        assert (stats.invocations, stats.cold_starts) == (5, 1)
        with pytest.raises(ConfigurationError, match="already run"):
            server.run(3_000.0)
        assert server.stats == before
        assert all(iat > 0 for iat in server.stats.iats_ms)

    def test_a_rejected_duration_does_not_use_up_the_run(self):
        server = self.make_server()
        with pytest.raises(ConfigurationError, match="positive"):
            server.run(0.0)
        assert server.run(1_000.0).invocations > 0

    def test_interleaving_scales_with_instance_count(self):
        """Sec. 2.2: more co-resident warm instances -> more invocations
        interleaved between two invocations of the same instance."""
        few = self.make_server(instances=10, seed=2).run(30_000.0)
        many = self.make_server(instances=200, seed=2).run(30_000.0)
        assert many.mean_interleaving() > 5 * few.mean_interleaving()

    def test_interleaving_matches_occupancy_arithmetic(self):
        """With N instances at equal rates, ~N-1 other invocations land
        between two invocations of a given instance."""
        n = 100
        stats = self.make_server(instances=n, mean_iat=500.0, seed=3) \
            .run(30_000.0)
        assert stats.mean_interleaving() == pytest.approx(n - 1, rel=0.25)

    def test_no_evictions_with_long_ttl(self):
        server = self.make_server(ttl_minutes=60)
        stats = server.run(20_000.0)
        invoked = sum(1 for inst in server.instances.values()
                      if inst.invocations > 0)
        assert stats.evictions == 0
        # Only each instance's first touch is cold.
        assert stats.cold_starts == invoked

    def test_short_ttl_causes_cold_starts(self):
        server = self.make_server(instances=20, mean_iat=5_000.0,
                                  ttl_minutes=0.02)  # 1.2s TTL
        stats = server.run(60_000.0)
        assert stats.cold_starts > 0
        assert stats.warm_fraction < 1.0

    def test_memory_accounting(self):
        server = self.make_server(instances=100)
        stats = server.run(1_000.0)
        assert 0 < stats.peak_memory_bytes <= server.config.memory_bytes

    def test_jukebox_metadata_headline(self):
        """Abstract: a thousand warm instances cost ~32MB of metadata."""
        server = ServerSimulator(ServerConfig())
        server.populate(SUITE, 1000, lambda i, p: PoissonArrivals(10_000.0,
                                                                  seed=i))
        stats = server.run(1_000.0)
        assert stats.jukebox_metadata_bytes == 1000 * 32 * 1024

    def test_iats_recorded(self):
        stats = self.make_server(instances=5, mean_iat=200.0).run(10_000.0)
        assert len(stats.iats_ms) > 10
        mean_iat = sum(stats.iats_ms) / len(stats.iats_ms)
        assert mean_iat == pytest.approx(200.0, rel=0.4)

    def test_deterministic_for_seed(self):
        a = self.make_server(seed=9).run(5_000.0)
        b = self.make_server(seed=9).run(5_000.0)
        assert a.invocations == b.invocations
        assert a.interleave_degrees == b.interleave_degrees


class TestServerConfigValidation:
    """Regression battery: malformed server parameters fail at
    construction, not as NaN-poisoned results deep in a fleet sweep."""

    @pytest.mark.parametrize("cores", [0, -1, -10])
    def test_rejects_nonpositive_cores(self, cores):
        with pytest.raises(ConfigurationError):
            ServerConfig(cores=cores)

    @pytest.mark.parametrize("memory_gb", [0, -1])
    def test_rejects_nonpositive_memory(self, memory_gb):
        with pytest.raises(ConfigurationError):
            ServerConfig(memory_gb=memory_gb)

    @pytest.mark.parametrize("service_time_ms",
                             [0.0, -1.0, float("nan"), float("inf"),
                              float("-inf")])
    def test_rejects_bad_service_time(self, service_time_ms):
        with pytest.raises(ConfigurationError):
            ServerConfig(service_time_ms=service_time_ms)

    @pytest.mark.parametrize("penalty", [-0.001, float("nan"), float("inf"),
                                         float("-inf")])
    def test_rejects_bad_cold_start_penalty(self, penalty):
        with pytest.raises(ConfigurationError):
            ServerConfig(cold_start_ms=penalty)

    @pytest.mark.parametrize("minutes", [0.0, -1.0, -0.001, float("nan"),
                                         float("inf"), float("-inf")])
    def test_rejects_bad_ttl(self, minutes):
        with pytest.raises(ConfigurationError):
            ServerConfig(ttl_minutes=minutes)

    def test_defaults_are_valid(self):
        cfg = ServerConfig()
        assert cfg.cores == 10 and cfg.memory_gb == 64
        assert cfg.memory_bytes == 64 * 1024 * MB
        assert cfg.cold_start_ms == 0.0 and cfg.ttl_minutes == 10.0

    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
    def test_add_instance_rejects_bad_service_scale(self, scale):
        server = ServerSimulator()
        with pytest.raises(ConfigurationError):
            server.add_instance(get_profile("Auth-G"), FixedIAT(100.0),
                                "x", service_scale=scale)


class TestEnforceMemory:
    """Warm-set tracking, memory-bounded admission, and latency
    accounting."""

    def overcommitted(self, seed=1):
        server = ServerSimulator(
            ServerConfig(cores=4, memory_gb=1, ttl_minutes=60.0), seed=seed)
        server.populate(
            SUITE, 100,
            lambda i, p: PoissonArrivals(500.0, seed=seed * 1000 + i))
        return server

    def test_drops_when_memory_exhausted(self):
        stats = self.overcommitted().run(20_000.0)
        assert stats.dropped > 0
        assert stats.arrivals == stats.invocations + stats.dropped

    def test_peak_memory_within_capacity(self):
        server = self.overcommitted()
        stats = server.run(20_000.0)
        assert stats.peak_memory_bytes <= server.config.memory_bytes

    def test_latencies_include_cold_start_penalty(self):
        cfg = ServerConfig(cores=10, cold_start_ms=250.0, ttl_minutes=60.0)
        server = ServerSimulator(cfg, seed=2)
        server.populate(
            SUITE, 10, lambda i, p: PoissonArrivals(1000.0, seed=i))
        stats = server.run(10_000.0)
        assert len(stats.latencies_ms) == stats.invocations
        assert stats.cold_starts > 0
        # Every instance cold-starts once, so the max latency carries
        # the penalty and the p99 sits at or above it.
        assert max(stats.latencies_ms) >= 250.0
        assert np.percentile(stats.latencies_ms, 99.0) >= 250.0
        assert stats.busy_ms > 0


class TestColdStartPenalty:
    """``ServerConfig.cold_start_ms`` is added, once, to exactly the
    invocations that cold-start."""

    def run(self, cold_start_ms, factor):
        """One instance invoked every ``factor`` x a 1.2 s TTL."""
        sim = ServerSimulator(ServerConfig(cores=2,
                                           cold_start_ms=cold_start_ms,
                                           ttl_minutes=0.02), seed=4)
        sim.add_instance(get_profile("Auth-G"), FixedIAT(factor * 1200.0))
        return sim.run(30_000.0)

    @pytest.mark.parametrize("factor,all_cold", [(0.5, False), (2.0, True)])
    @pytest.mark.parametrize("penalty", [0.0, 120.0, 250.5])
    def test_penalty_charged_once_per_cold_start(self, penalty, factor,
                                                 all_cold):
        free = self.run(0.0, factor)
        charged = self.run(penalty, factor)
        # The penalty moves no arrival, admission or service draw.
        assert charged.invocations == free.invocations > 10
        assert charged.cold_starts == free.cold_starts
        assert charged.cold_starts == (charged.invocations if all_cold
                                       else 1)
        # One idle instance never queues, so each latency is its service
        # time plus the penalty when that invocation cold-started.
        extra = [a - b for a, b in zip(charged.latencies_ms,
                                       free.latencies_ms)]
        expected = [penalty if all_cold or i == 0 else 0.0
                    for i in range(len(extra))]
        assert extra == pytest.approx(expected, abs=1e-9)
        assert charged.busy_ms - free.busy_ms == pytest.approx(
            charged.cold_starts * penalty)

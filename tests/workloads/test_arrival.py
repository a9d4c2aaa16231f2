"""Tests for inter-arrival-time processes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.fleet.plan import arrival_seed_for
from repro.workloads.arrival import (
    ARRIVAL_KINDS,
    IAT_BLOCK,
    BurstyArrivals,
    DiurnalArrivals,
    FixedIAT,
    LognormalArrivals,
    PoissonArrivals,
    make_arrival_process,
)


class TestFixedIAT:
    def test_constant(self):
        proc = FixedIAT(100.0)
        assert [proc.next_iat() for _ in range(3)] == [100.0, 100.0, 100.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FixedIAT(0)


class TestPoissonArrivals:
    def test_mean_matches(self):
        proc = PoissonArrivals(50.0, seed=1)
        samples = [proc.next_iat() for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(50.0, rel=0.1)

    @pytest.mark.parametrize("seed", [11, 42, 2022])
    def test_mean_within_confidence_bounds(self, seed):
        """The sample mean lands inside a 4-sigma CI around the nominal
        mean.  For exp(mean) the standard error of an n-sample mean is
        mean/sqrt(n), so the bound is seed-robust (p ~ 6e-5 per seed)."""
        mean, n = 200.0, 10_000
        proc = PoissonArrivals(mean, seed=seed)
        sample_mean = np.mean([proc.next_iat() for _ in range(n)])
        half_width = 4.0 * mean / np.sqrt(n)
        assert abs(sample_mean - mean) < half_width, (seed, sample_mean)

    def test_deterministic_for_seed(self):
        a = PoissonArrivals(50.0, seed=2)
        b = PoissonArrivals(50.0, seed=2)
        assert [a.next_iat() for _ in range(5)] == [b.next_iat() for _ in range(5)]

    def test_all_positive(self):
        proc = PoissonArrivals(5.0, seed=3)
        assert all(proc.next_iat() >= 0 for _ in range(100))


class TestLognormalArrivals:
    def test_mean_matches(self):
        proc = LognormalArrivals(100.0, sigma=1.0, seed=1)
        samples = [proc.next_iat() for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.15)

    def test_heavier_tail_than_poisson(self):
        logn = LognormalArrivals(100.0, sigma=1.5, seed=4)
        pois = PoissonArrivals(100.0, seed=4)
        ln_samples = sorted(logn.next_iat() for _ in range(5000))
        po_samples = sorted(pois.next_iat() for _ in range(5000))
        assert ln_samples[int(0.999 * 5000)] > po_samples[int(0.999 * 5000)]

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            LognormalArrivals(100.0, sigma=0)


class TestBurstyArrivals:
    def test_deterministic_for_seed(self):
        a = BurstyArrivals(100.0, seed=9)
        b = BurstyArrivals(100.0, seed=9)
        assert [a.next_iat() for _ in range(50)] == \
            [b.next_iat() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = BurstyArrivals(100.0, seed=9)
        b = BurstyArrivals(100.0, seed=10)
        assert [a.next_iat() for _ in range(10)] != \
            [b.next_iat() for _ in range(10)]

    def test_stationary_mean_near_nominal(self):
        proc = BurstyArrivals(100.0, seed=5)
        samples = [proc.next_iat() for _ in range(40_000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.15)

    def test_burstier_than_poisson(self):
        """Burst/idle modulation inflates the coefficient of variation
        above the exponential's CV of 1."""
        proc = BurstyArrivals(100.0, burst_factor=16.0, seed=6)
        samples = np.array([proc.next_iat() for _ in range(20_000)])
        assert np.std(samples) / np.mean(samples) > 1.2

    @pytest.mark.parametrize("kwargs", [
        {"burst_factor": 1.0},
        {"burst_factor": 0.5},
        {"switch_prob": 0.0},
        {"switch_prob": 1.5},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(100.0, **kwargs)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(0.0)


class TestDiurnalArrivals:
    def test_deterministic_for_seed(self):
        a = DiurnalArrivals(100.0, period_ms=10_000.0, seed=9)
        b = DiurnalArrivals(100.0, period_ms=10_000.0, seed=9)
        assert [a.next_iat() for _ in range(50)] == \
            [b.next_iat() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = DiurnalArrivals(100.0, seed=9)
        b = DiurnalArrivals(100.0, seed=10)
        assert [a.next_iat() for _ in range(10)] != \
            [b.next_iat() for _ in range(10)]

    def test_rate_modulates_over_the_cycle(self):
        """Peak-phase IATs are shorter than trough-phase IATs on
        average: start two copies half a period apart."""
        peak = DiurnalArrivals(100.0, amplitude=0.9, period_ms=1e9,
                               phase=np.pi / 2, seed=3)
        trough = DiurnalArrivals(100.0, amplitude=0.9, period_ms=1e9,
                                 phase=-np.pi / 2, seed=3)
        # Period >> samples*mean keeps each copy pinned near its phase.
        peak_mean = np.mean([peak.next_iat() for _ in range(2000)])
        trough_mean = np.mean([trough.next_iat() for _ in range(2000)])
        assert peak_mean < trough_mean / 2

    def test_zero_amplitude_matches_poisson(self):
        flat = DiurnalArrivals(100.0, amplitude=0.0, seed=7)
        pois = PoissonArrivals(100.0, seed=7)
        assert [flat.next_iat() for _ in range(20)] == \
            [pois.next_iat() for _ in range(20)]

    @pytest.mark.parametrize("kwargs", [
        {"amplitude": -0.1},
        {"amplitude": 1.0},
        {"period_ms": 0.0},
        {"period_ms": -5.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(100.0, **kwargs)


class TestBlockDrawWordContract:
    """Poisson and diurnal processes take standard exponential draws from
    numpy in blocks of ``IAT_BLOCK`` and scale each one.  Over three
    blocks and one more draw they must return what one scalar
    ``Generator.exponential`` call per draw returns, so a numpy release
    that computes ``exponential(scale)`` otherwise fails here, not only in
    the fleet-region benchmark's result digest."""

    DRAWS = 3 * IAT_BLOCK + 1
    #: Arrival seeds of fleet-region instances (the first and last of
    #: seed 1's 480, one of the held-out seed 4242's) and seed 0.
    SEEDS = [arrival_seed_for(FleetConfig(seed=1), 0),
             arrival_seed_for(FleetConfig(seed=1), 479),
             arrival_seed_for(FleetConfig(seed=4242), 7),
             0]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson_returns_scalar_draws(self, seed):
        rng = np.random.default_rng(seed)
        scalar = [float(rng.exponential(500.0)) for _ in range(self.DRAWS)]
        proc = PoissonArrivals(500.0, seed=seed)
        assert [proc.next_iat() for _ in range(self.DRAWS)] == scalar

    @pytest.mark.parametrize("seed", SEEDS)
    def test_diurnal_returns_scalar_draws(self, seed):
        mean, amplitude, period_ms, phase = 500.0, 0.6, 30_000.0, 0.4
        rng = np.random.default_rng(seed)
        scalar, t = [], 0.0
        for _ in range(self.DRAWS):
            modulation = 1.0 + amplitude * math.sin(
                2.0 * math.pi * t / period_ms + phase)
            iat = float(rng.exponential(mean / modulation))
            t += iat
            scalar.append(iat)
        proc = DiurnalArrivals(mean, amplitude=amplitude,
                               period_ms=period_ms, phase=phase, seed=seed)
        assert [proc.next_iat() for _ in range(self.DRAWS)] == scalar


class TestCrossProcessDeterminism:
    """The same (kind, mean, seed) triple yields bit-identical streams
    in a fresh interpreter: arrival streams are a pure function of their
    parameters, never of process state, hash randomization, or import
    order.  This is what lets fleet shards recompute each other's plans."""

    SNIPPET = (
        "import json, sys\n"
        "from repro.workloads.arrival import make_arrival_process\n"
        "kind, seed = sys.argv[1], int(sys.argv[2])\n"
        "proc = make_arrival_process(kind, 250.0, seed=seed)\n"
        "print(json.dumps([proc.next_iat() for _ in range(25)]))\n"
    )

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_stream_identical_across_processes(self, kind):
        src = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", self.SNIPPET, kind, "13"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
        in_subprocess = json.loads(out.stdout)
        here = make_arrival_process(kind, 250.0, seed=13)
        assert in_subprocess == [here.next_iat() for _ in range(25)]


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("fixed", FixedIAT),
        ("poisson", PoissonArrivals),
        ("lognormal", LognormalArrivals),
        ("bursty", BurstyArrivals),
        ("diurnal", DiurnalArrivals),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(make_arrival_process(kind, 10.0), cls)

    def test_each_kind_at_its_class_default_shape(self):
        """The factory's stream is the class's own with default shape
        parameters, draw for draw."""
        for kind, cls in [("fixed", FixedIAT),
                          ("poisson", PoissonArrivals),
                          ("lognormal", LognormalArrivals),
                          ("bursty", BurstyArrivals),
                          ("diurnal", DiurnalArrivals)]:
            made = make_arrival_process(kind, 250.0, seed=7)
            own = cls(250.0) if cls is FixedIAT else cls(250.0, seed=7)
            assert ([made.next_iat() for _ in range(200)]
                    == [own.next_iat() for _ in range(200)]), kind

    def test_kinds_tuple_is_exhaustive(self):
        assert set(ARRIVAL_KINDS) == {"fixed", "poisson", "lognormal",
                                      "bursty", "diurnal"}
        for kind in ARRIVAL_KINDS:
            assert make_arrival_process(kind, 10.0).next_iat() > 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_arrival_process("weibull", 10.0)

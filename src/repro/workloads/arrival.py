"""Invocation inter-arrival-time (IAT) processes.

Sec. 2.1/2.2: fewer than 5% of invocations to warm instances arrive less
than one second apart; the vast majority of IATs lie between one second and
a few minutes (Shahrad et al.'s Azure study).  These processes drive the
server-level interleaving model and the Fig. 1 IAT sweep.

All times are in **milliseconds**.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterator, List

import numpy as np

from repro.errors import ConfigurationError

#: Standard exponential draws an arrival process takes from numpy at a
#: time: a full-scale fleet instance draws about 120 inter-arrival times.
IAT_BLOCK = 64


class ExponentialBlocks:
    """Standard exponential draws of one generator, taken in blocks.

    numpy computes ``Generator.exponential(scale)`` as ``scale`` times one
    standard exponential draw, so ``scale * draw()`` returns, value for
    value, what one ``exponential(scale)`` call per draw returns.  The
    rest of a block waits for the next :meth:`draw`, so the generator's
    stream goes on where it stopped.  Nothing else may draw from ``rng``.
    """

    def __init__(self, rng: np.random.Generator, block: int) -> None:
        self._rng = rng
        self._block = block
        self._units: List[float] = []
        self._next = 0

    def draw(self) -> float:
        i = self._next
        if i == len(self._units):
            self._units = self._rng.standard_exponential(self._block).tolist()
            i = 0
        self._next = i + 1
        return self._units[i]


class ArrivalProcess(ABC):
    """Generator of invocation inter-arrival times."""

    @abstractmethod
    def next_iat(self) -> float:
        """Return the next inter-arrival time in milliseconds."""

    def arrivals(self, until_ms: float, start_ms: float = 0.0) -> Iterator[float]:
        """Yield absolute arrival times up to ``until_ms``."""
        t = start_ms
        while True:
            t += self.next_iat()
            if t > until_ms:
                return
            yield t


class FixedIAT(ArrivalProcess):
    """Deterministic arrivals (the Fig. 1 function-under-test driver)."""

    def __init__(self, iat_ms: float) -> None:
        if iat_ms <= 0:
            raise ConfigurationError(f"IAT must be positive, got {iat_ms}")
        self._iat = float(iat_ms)

    def next_iat(self) -> float:
        return self._iat


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with the given rate."""

    def __init__(self, mean_iat_ms: float, seed: int = 0) -> None:
        if mean_iat_ms <= 0:
            raise ConfigurationError(f"mean IAT must be positive: {mean_iat_ms}")
        self._mean = float(mean_iat_ms)
        self._units = ExponentialBlocks(np.random.default_rng(seed), IAT_BLOCK)

    def next_iat(self) -> float:
        return self._mean * self._units.draw()


class LognormalArrivals(ArrivalProcess):
    """Heavy-tailed arrivals; production IAT distributions are closer to
    lognormal than exponential (bursts plus long quiet periods)."""

    def __init__(self, mean_iat_ms: float, sigma: float = 1.0,
                 seed: int = 0) -> None:
        if mean_iat_ms <= 0:
            raise ConfigurationError(f"mean IAT must be positive: {mean_iat_ms}")
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive: {sigma}")
        self._sigma = float(sigma)
        # Choose mu so the distribution mean equals mean_iat_ms.
        self._mu = math.log(mean_iat_ms) - sigma * sigma / 2.0
        self._rng = np.random.default_rng(seed)

    def next_iat(self) -> float:
        return float(self._rng.lognormal(self._mu, self._sigma))


class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated arrivals: bursts and quiet stretches.

    The process alternates between a *burst* state (IATs drawn with mean
    ``mean_iat_ms / burst_factor``) and an *idle* state (mean chosen so
    the stationary overall mean stays ``mean_iat_ms``); the state flips
    with probability ``switch_prob`` before each draw.  With symmetric
    switching the two states are visited equally often, so the idle mean
    is ``2*mean - mean/burst_factor``.  Models the on/off invocation
    trains of production serverless traffic better than a memoryless
    process while staying fully seeded.
    """

    def __init__(self, mean_iat_ms: float, burst_factor: float = 8.0,
                 switch_prob: float = 0.05, seed: int = 0) -> None:
        if mean_iat_ms <= 0:
            raise ConfigurationError(f"mean IAT must be positive: {mean_iat_ms}")
        if burst_factor <= 1.0:
            raise ConfigurationError(
                f"burst_factor must be > 1, got {burst_factor}")
        if not 0.0 < switch_prob <= 1.0:
            raise ConfigurationError(
                f"switch_prob must be in (0, 1], got {switch_prob}")
        mean = float(mean_iat_ms)
        self._burst_mean = mean / float(burst_factor)
        self._idle_mean = 2.0 * mean - self._burst_mean
        self._switch_prob = float(switch_prob)
        self._in_burst = True
        self._rng = np.random.default_rng(seed)

    def next_iat(self) -> float:
        if self._rng.random() < self._switch_prob:
            self._in_burst = not self._in_burst
        mean = self._burst_mean if self._in_burst else self._idle_mean
        return float(self._rng.exponential(mean))


class DiurnalArrivals(ArrivalProcess):
    """Nonhomogeneous arrivals tracking a day/night load cycle.

    The instantaneous rate is modulated sinusoidally around the base
    rate: at internal time ``t`` the mean IAT is ``mean_iat_ms / (1 +
    amplitude * sin(2*pi*t/period_ms + phase))``.  The process tracks
    its own cumulative simulated time, so the stream is a pure function
    of (seed, parameters).  ``mean_iat_ms`` is the base (cycle-average)
    mean; the realized sample mean is slightly below it because high-rate
    phases contribute more draws.
    """

    def __init__(self, mean_iat_ms: float, amplitude: float = 0.6,
                 period_ms: float = 86_400_000.0, phase: float = 0.0,
                 seed: int = 0) -> None:
        if mean_iat_ms <= 0:
            raise ConfigurationError(f"mean IAT must be positive: {mean_iat_ms}")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError(
                f"amplitude must be in [0, 1), got {amplitude}")
        if period_ms <= 0:
            raise ConfigurationError(
                f"period_ms must be positive, got {period_ms}")
        self._mean = float(mean_iat_ms)
        self._amplitude = float(amplitude)
        self._period = float(period_ms)
        self._phase = float(phase)
        self._t = 0.0
        self._units = ExponentialBlocks(np.random.default_rng(seed), IAT_BLOCK)

    def next_iat(self) -> float:
        modulation = 1.0 + self._amplitude * math.sin(
            2.0 * math.pi * self._t / self._period + self._phase)
        iat = self._mean / modulation * self._units.draw()
        self._t += iat
        return iat


#: Arrival kinds accepted by :func:`make_arrival_process` (and by the
#: fleet's ``arrival`` axis).
ARRIVAL_KINDS = ("fixed", "poisson", "lognormal", "bursty", "diurnal")


def make_arrival_process(kind: str, mean_iat_ms: float,
                         seed: int = 0) -> ArrivalProcess:
    """The ``kind`` process at its class's default shape (the fleet's
    arrival setting); build a class directly for another shape."""
    if kind == "fixed":
        return FixedIAT(mean_iat_ms)
    if kind == "poisson":
        return PoissonArrivals(mean_iat_ms, seed=seed)
    if kind == "lognormal":
        return LognormalArrivals(mean_iat_ms, seed=seed)
    if kind == "bursty":
        return BurstyArrivals(mean_iat_ms, seed=seed)
    if kind == "diurnal":
        return DiurnalArrivals(mean_iat_ms, seed=seed)
    raise ConfigurationError(
        f"unknown arrival kind {kind!r}; expected "
        f"{'|'.join(ARRIVAL_KINDS)}"
    )

"""Experiment scale and per-configuration results, without the simulator.

:class:`RunConfig` is what every experiment and the runner build before
anything is simulated, and :class:`SequenceResult` is what the default
provider's cells hold in the cache.  Neither needs the simulator, so a
re-run served entirely from the cache imports this module instead of
:mod:`repro.experiments.common` and never loads numpy.

The result types a cached :class:`SequenceResult` is made of are imported
here, eagerly: otherwise unpickling the first cached cell would import
them inside the sweep, in that cell's time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any, List

from repro.core.jukebox import JukeboxInvocationReport
from repro.errors import ConfigurationError
from repro.sim.result import BACKENDS, InvocationResult


@dataclass(frozen=True)
class RunConfig:
    """Controls experiment scale.

    ``instruction_scale`` shrinks per-invocation instruction counts (reuse
    depth) without changing footprints; benchmarks use ``fast()`` to keep
    wall-clock time low while preserving every result's shape.

    ``seed`` must be non-negative: it seeds numpy's generators, which
    reject a negative seed.

    ``backend`` selects the simulation backend (``"columnar"`` or
    ``"scalar"``).  Both are bit-identical by contract, so the choice only
    affects throughput -- but it is still part of the cache identity (see
    :meth:`repro.engine.job.Job.key`) because the equivalence is *enforced*,
    not assumed.
    """

    invocations: int = 7
    warmup: int = 2
    seed: int = 1
    instruction_scale: float = 1.0
    backend: str = "columnar"

    def __post_init__(self) -> None:
        if self.invocations <= self.warmup:
            raise ConfigurationError(
                f"need more invocations ({self.invocations}) than warmup "
                f"({self.warmup})"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed}")
        if self.instruction_scale <= 0:
            raise ConfigurationError(
                f"instruction_scale must be > 0, got {self.instruction_scale}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown simulation backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )

    def replace(self, **kwargs: Any) -> "RunConfig":
        """A copy with ``kwargs`` overridden, re-validated by __post_init__."""
        return _dc_replace(self, **kwargs)

    @staticmethod
    def fast() -> "RunConfig":
        """Reduced-scale configuration for benchmarks and tests."""
        return RunConfig(invocations=4, warmup=1, instruction_scale=0.35)

    @staticmethod
    def full() -> "RunConfig":
        """Full-scale configuration for EXPERIMENTS.md numbers."""
        return RunConfig(invocations=8, warmup=2, instruction_scale=1.0)


@dataclass
class SequenceResult:
    """Measured invocations of one configuration plus Jukebox reports."""

    results: List[InvocationResult]
    jukebox_reports: List[JukeboxInvocationReport] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        return sum(r.cycles for r in self.results)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.results)

    @property
    def cpi(self) -> float:
        return self.cycles / max(1, self.instructions)

    def mean_mpki(self, level: str, kind: str = "all") -> float:
        if not self.results:
            return 0.0
        return sum(r.mpki(level, kind) for r in self.results) / len(self.results)

"""Shared drivers for the per-figure/table experiments.

Every evaluation experiment follows the paper's protocol (Secs. 4.2, 5.2):
a function instance is invoked repeatedly; the first ``warmup`` invocations
establish steady state (the gem5 checkpoint + first recorded metadata) and
the remaining invocations are measured.  The standard configurations live
in the :data:`CONFIGS` registry (name -> builder) and are dispatched by
:func:`run_config`, which is also what :mod:`repro.engine` workers invoke:

* **reference**  -- back-to-back invocations with warm state;
* **baseline**   -- all microarchitectural state flushed between
  invocations (the lukewarm/interleaved baseline);
* **jukebox**    -- the baseline plus Jukebox record/replay;
* **perfect**    -- the baseline with an infinite magic I-cache that
  persists across invocations (upper bound);
* **pif**        -- the baseline plus the PIF prefetcher (``params=`` and
  ``with_jukebox=`` options cover the PIF-ideal and combined variants).

Experiment modules may register additional configs with
:func:`register_config` (e.g. ``contended`` in ``fig01_iat``); an engine
:class:`~repro.engine.job.Job` names its registering module as the
``provider`` so worker processes can resolve it.

The historical ``run_reference``/``run_baseline``/``run_jukebox``/
``run_perfect_icache``/``run_pif`` entry points survive as deprecated thin
wrappers over :func:`run_config`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.jukebox import Jukebox, JukeboxInvocationReport
from repro.core.pif import PIF, PIFParams
from repro.errors import ConfigurationError
from repro.sim.core import BACKENDS, InvocationResult, Simulator
from repro.sim.params import MachineParams
from repro.sim.simulate import simulate
from repro.workloads.function import FunctionModel
from repro.workloads.profiles import FunctionProfile
from repro.workloads.trace import InvocationTrace


@dataclass(frozen=True)
class RunConfig:
    """Controls experiment scale.

    ``instruction_scale`` shrinks per-invocation instruction counts (reuse
    depth) without changing footprints; benchmarks use ``fast()`` to keep
    wall-clock time low while preserving every result's shape.

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


def make_model(profile: FunctionProfile, cfg: RunConfig) -> FunctionModel:
    """Build the (possibly scaled) trace generator for one function."""
    return _scaled_model(profile, cfg.seed, cfg.instruction_scale)


def _scaled_model(profile: FunctionProfile, seed: int,
                  instruction_scale: float) -> FunctionModel:
    if not math.isclose(instruction_scale, 1.0, rel_tol=1e-12):
        profile = profile.scaled(instruction_scale)
    return FunctionModel(profile, seed=seed)


def make_traces(profile: FunctionProfile, cfg: RunConfig) -> List[InvocationTrace]:
    """The ``cfg.invocations`` traces of ``profile`` under ``cfg``: read-only,
    and shared with every cell on the same generation inputs, so each
    trace is generated and compiled to its columnar IR once (see
    :func:`_trace_set`)."""
    return list(_trace_set(profile, cfg.seed, cfg.instruction_scale,
                           cfg.invocations))


@functools.lru_cache(maxsize=1)
def _trace_set(profile: FunctionProfile, seed: int, instruction_scale: float,
               invocations: int) -> Tuple[InvocationTrace, ...]:
    """Per-process memo behind :func:`make_traces`, keyed on exactly the
    generation inputs (``backend`` and ``warmup`` do not change a trace).

    One set suffices because sweeps submit their grid function-major, so
    a function's cells run back to back.  The value is a read-only pure
    function of the key, so a pool worker's copy cannot diverge from a
    serial run's.
    """
    model = _scaled_model(profile, seed, instruction_scale)
    return tuple(model.invocation_trace(i) for i in range(invocations))


def _measure(sim: Simulator, traces: List[InvocationTrace], cfg: RunConfig,
             flush: bool, jukebox: Optional[Jukebox] = None,
             pif: Optional[PIF] = None) -> SequenceResult:
    measured: List[InvocationResult] = []
    reports: List[JukeboxInvocationReport] = []
    for i, trace in enumerate(traces):
        if flush:
            sim.flush_microarch_state()
            if pif is not None:
                pif.flush()
        if jukebox is not None:
            jukebox.begin_invocation(sim.hierarchy)
        result = simulate(trace, sim=sim)
        if jukebox is not None:
            report = jukebox.end_invocation(sim.hierarchy, result)
            if i >= cfg.warmup:
                reports.append(report)
        if i >= cfg.warmup:
            measured.append(result)
    return SequenceResult(results=measured, jukebox_reports=reports)


# ---------------------------------------------------------------------------
# The config registry: name -> builder, dispatched by run_config().

#: A builder computes one simulation cell: (profile, machine, cfg, **opts).
ConfigBuilder = Callable[..., Any]

CONFIGS: Dict[str, ConfigBuilder] = {}


def register_config(name: str) -> Callable[[ConfigBuilder], ConfigBuilder]:
    """Register a config builder under ``name`` (decorator).

    Names are global across the process -- an engine
    :class:`~repro.engine.job.Job` carries only the name plus its provider
    module -- so double registration is a configuration error.
    """
    def decorator(builder: ConfigBuilder) -> ConfigBuilder:
        existing = CONFIGS.get(name)
        if existing is not None and existing is not builder:
            raise ConfigurationError(
                f"config {name!r} already registered by "
                f"{existing.__module__}.{existing.__qualname__}"
            )
        CONFIGS[name] = builder
        return builder
    return decorator


def config_names() -> Tuple[str, ...]:
    """The currently registered config names, sorted."""
    return tuple(sorted(CONFIGS))


def run_config(profile: FunctionProfile, machine: Optional[MachineParams],
               cfg: RunConfig, config: str, **opts: Any) -> Any:
    """Run one simulation cell: dispatch ``config`` through the registry.

    This is the single entry point behind both the deprecated ``run_*``
    wrappers and :func:`repro.engine.executors.execute_job`.
    """
    try:
        builder = CONFIGS[config]
    except KeyError:
        raise ConfigurationError(
            f"unknown config {config!r}; registered: "
            f"{', '.join(config_names())}"
        ) from None
    return builder(profile, machine, cfg, **opts)


@register_config("reference")
def _build_reference(profile: FunctionProfile, machine: MachineParams,
                     cfg: RunConfig) -> SequenceResult:
    """Back-to-back warm invocations on an otherwise idle core."""
    sim = Simulator(machine, backend=cfg.backend)
    return _measure(sim, make_traces(profile, cfg), cfg, flush=False)


@register_config("baseline")
def _build_baseline(profile: FunctionProfile, machine: MachineParams,
                    cfg: RunConfig) -> SequenceResult:
    """The lukewarm baseline: full state flush between invocations."""
    sim = Simulator(machine, backend=cfg.backend)
    return _measure(sim, make_traces(profile, cfg), cfg, flush=True)


@register_config("jukebox")
def _build_jukebox(profile: FunctionProfile, machine: MachineParams,
                   cfg: RunConfig) -> SequenceResult:
    """Baseline plus Jukebox record/replay."""
    sim = Simulator(machine, backend=cfg.backend)
    jukebox = Jukebox(machine.jukebox)
    return _measure(sim, make_traces(profile, cfg), cfg, flush=True,
                    jukebox=jukebox)


@register_config("perfect")
def _build_perfect_icache(profile: FunctionProfile, machine: MachineParams,
                          cfg: RunConfig) -> SequenceResult:
    """Baseline with an infinite, flush-surviving L1-I (upper bound)."""
    sim = Simulator(machine, backend=cfg.backend)
    sim.hierarchy.perfect_icache = True
    return _measure(sim, make_traces(profile, cfg), cfg, flush=True)


@register_config("pif")
def _build_pif(profile: FunctionProfile, machine: MachineParams,
               cfg: RunConfig, params: Optional[PIFParams] = None,
               with_jukebox: bool = False) -> SequenceResult:
    """Baseline plus PIF (optionally combined with Jukebox, Fig. 13)."""
    params = params if params is not None else PIFParams()
    sim = Simulator(machine, backend=cfg.backend)
    pif = PIF(params, sim.hierarchy)
    if not with_jukebox:
        sim.hierarchy.record_hook = pif
        return _measure(sim, make_traces(profile, cfg), cfg, flush=True,
                        pif=pif)
    # Combined JB + PIF: PIF observes fetches through a forwarding hook
    # while Jukebox owns the L2-miss record stream.
    jukebox = Jukebox(machine.jukebox)
    traces = make_traces(profile, cfg)
    measured: List[InvocationResult] = []
    reports: List[JukeboxInvocationReport] = []
    for i, trace in enumerate(traces):
        sim.flush_microarch_state()
        pif.flush()
        jukebox.begin_invocation(sim.hierarchy)
        jb_recorder = sim.hierarchy.record_hook
        sim.hierarchy.record_hook = _TeeHook(jb_recorder, pif)
        result = simulate(trace, sim=sim)
        sim.hierarchy.record_hook = jb_recorder
        report = jukebox.end_invocation(sim.hierarchy, result)
        if i >= cfg.warmup:
            measured.append(result)
            reports.append(report)
    return SequenceResult(results=measured, jukebox_reports=reports)


class _TeeHook:
    """Forward record-hook events to two consumers (JB + PIF combo)."""

    def __init__(self, first, second) -> None:
        self._hooks = [h for h in (first, second) if h is not None]

    def on_fetch(self, vaddr: int, cycle: float) -> None:
        for hook in self._hooks:
            hook.on_fetch(vaddr, cycle)

    def on_l2_inst_miss(self, vaddr: int, cycle: float) -> None:
        for hook in self._hooks:
            hook.on_l2_inst_miss(vaddr, cycle)


# ---------------------------------------------------------------------------
# Deprecated closure-style entry points (pre-engine API).

def _deprecation_message(old_name: str, config: str) -> str:
    return (f"{old_name}() is deprecated; use "
            f"run_config(profile, machine, cfg, {config!r}) or submit a "
            f"repro.engine Job")


# Each wrapper calls warnings.warn() itself with a literal stacklevel=2,
# so the warning is attributed to the *caller's* line -- the place that
# actually needs migrating -- rather than to a shared helper frame.

def run_reference(profile: FunctionProfile, machine: MachineParams,
                  cfg: RunConfig) -> SequenceResult:
    """Deprecated: use ``run_config(profile, machine, cfg, "reference")``."""
    warnings.warn(_deprecation_message("run_reference", "reference"),
                  DeprecationWarning, stacklevel=2)
    return run_config(profile, machine, cfg, "reference")


def run_baseline(profile: FunctionProfile, machine: MachineParams,
                 cfg: RunConfig) -> SequenceResult:
    """Deprecated: use ``run_config(profile, machine, cfg, "baseline")``."""
    warnings.warn(_deprecation_message("run_baseline", "baseline"),
                  DeprecationWarning, stacklevel=2)
    return run_config(profile, machine, cfg, "baseline")


def run_jukebox(profile: FunctionProfile, machine: MachineParams,
                cfg: RunConfig) -> SequenceResult:
    """Deprecated: use ``run_config(profile, machine, cfg, "jukebox")``."""
    warnings.warn(_deprecation_message("run_jukebox", "jukebox"),
                  DeprecationWarning, stacklevel=2)
    return run_config(profile, machine, cfg, "jukebox")


def run_perfect_icache(profile: FunctionProfile, machine: MachineParams,
                       cfg: RunConfig) -> SequenceResult:
    """Deprecated: use ``run_config(profile, machine, cfg, "perfect")``."""
    warnings.warn(_deprecation_message("run_perfect_icache", "perfect"),
                  DeprecationWarning, stacklevel=2)
    return run_config(profile, machine, cfg, "perfect")


def run_pif(profile: FunctionProfile, machine: MachineParams, cfg: RunConfig,
            params: PIFParams,
            with_jukebox: bool = False) -> SequenceResult:
    """Deprecated: use ``run_config(..., "pif", params=..., with_jukebox=...)``."""
    warnings.warn(_deprecation_message("run_pif", "pif"),
                  DeprecationWarning, stacklevel=2)
    return run_config(profile, machine, cfg, "pif", params=params,
                      with_jukebox=with_jukebox)


def run_all_configs(profile: FunctionProfile, machine: MachineParams,
                    cfg: RunConfig) -> Dict[str, SequenceResult]:
    """Reference, baseline, Jukebox and perfect-I$ for one function."""
    return {name: run_config(profile, machine, cfg, name)
            for name in ("reference", "baseline", "jukebox", "perfect")}

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

:class:`RunConfig` and :class:`SequenceResult` live in
:mod:`repro.experiments.scale`, which does not import the simulator, and
are re-exported here.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.jukebox import Jukebox, JukeboxInvocationReport
from repro.core.pif import PIF, PIFParams
from repro.errors import ConfigurationError
from repro.experiments.scale import RunConfig, SequenceResult
from repro.sim.core import Simulator, simulate
from repro.sim.params import MachineParams
from repro.sim.result import InvocationResult
from repro.workloads.function import FunctionModel
from repro.workloads.profiles import FunctionProfile
from repro.workloads.trace import InvocationTrace


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
            if pif is not None:
                # Combined Jukebox + PIF: PIF observes fetches through a
                # forwarding hook while Jukebox owns the L2-miss record
                # stream; end_invocation drops the hook.
                sim.hierarchy.record_hook = _TeeHook(
                    sim.hierarchy.record_hook, pif)
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

    This is the single way to run a configuration, and what
    :func:`repro.engine.executors.execute_job` calls.
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
    jukebox = Jukebox(machine.jukebox) if with_jukebox else None
    if jukebox is None:
        sim.hierarchy.record_hook = pif
    return _measure(sim, make_traces(profile, cfg), cfg, flush=True,
                    jukebox=jukebox, pif=pif)


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


def run_all_configs(profile: FunctionProfile, machine: MachineParams,
                    cfg: RunConfig) -> Dict[str, SequenceResult]:
    """Reference, baseline, Jukebox and perfect-I$ for one function."""
    return {name: run_config(profile, machine, cfg, name)
            for name in ("reference", "baseline", "jukebox", "perfect")}

"""Extension: the cold→lukewarm→warm invocation-frequency spectrum.

The paper characterizes the *lukewarm* point only.  This experiment
sweeps the whole axis: per (function, variant, IAT) cell it reports the
end-to-end invocation latency decomposed into library initialization
(ColdSpy axis), snapshot page faults (REAP axis) and microarchitectural
misses (the paper's axis), so the fig01-style curve shows where each
optimization pays off:

* **warm** (``iat == 0``) -- back-to-back invocations, state retained:
  exactly the registry's ``reference`` config.
* **lukewarm** (``0 < iat <= ttl``) -- the instance stays resident but
  interleaving co-tenants evicted its microarchitectural state: exactly
  the registry's ``baseline`` (or ``jukebox``) config, byte-identical
  to today's lukewarm results.
* **cold** (``iat > ttl``) -- the keep-alive policy reclaimed the
  instance; every invocation restores a snapshot (page faults, REAP
  record/replay under the ``page_replay`` toggle) and re-runs library
  initialization (trimmed under ``init_trim``).  It executes the
  lukewarm sequence: a cold boot also starts from flushed state, and
  under ``jukebox`` the snapshot restores exactly the metadata the
  previous invocation recorded, which the lukewarm Jukebox replays.

Every cell is a content-addressed engine job (cached, parallel,
SIGKILL-resumable).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.coldstart.model import SpectrumColdStart
from repro.engine import Job, sweep
from repro.errors import ConfigurationError
from repro.experiments.common import RunConfig, register_config, run_config
from repro.sim.params import MachineParams, skylake
from repro.workloads.profiles import FunctionProfile
from repro.workloads.suite import get_profile

#: Swept inter-arrival times in ms (0 = back-to-back warm anchor; the
#: default 10-minute TTL puts the last three points in the cold regime).
DEFAULT_IATS_MS = (0.0, 1_000.0, 30_000.0, 120_000.0, 300_000.0,
                   900_000.0, 1_800_000.0, 3_600_000.0)

#: Keep-alive TTL separating lukewarm from cold (10 minutes, the
#: fixed-keep-alive industry default the paper cites).
DEFAULT_TTL_MS = 600_000.0

#: One function per language (Table 2 suffix convention).
DEFAULT_FUNCTIONS = ("Auth-P", "AES-N", "ProdL-G")

#: Optimization toggles per variant: (jukebox, page_replay, init_trim).
VARIANTS: Dict[str, Tuple[bool, bool, bool]] = {
    "baseline": (False, False, False),
    "jukebox": (True, False, False),
    "page_replay": (False, True, False),
    "init_trim": (False, False, True),
    "all": (True, True, True),
}

REGIME_WARM = "warm"
REGIME_LUKEWARM = "lukewarm"
REGIME_COLD = "cold"

#: Registry configs this experiment sweeps (one cell per point).
SWEEP_CONFIGS = ("spectrum_point",)


def classify_regime(iat_ms: float, ttl_ms: float) -> str:
    """Which regime an inter-arrival time lands in under a TTL."""
    if iat_ms < 0 or ttl_ms <= 0:
        raise ConfigurationError(
            f"need iat_ms >= 0 and ttl_ms > 0, got {iat_ms}, {ttl_ms}")
    if iat_ms == 0:
        return REGIME_WARM
    if iat_ms <= ttl_ms:
        return REGIME_LUKEWARM
    return REGIME_COLD


def _cell_dict(regime: str, iat_ms: float, freq_ghz: float,
               invocations: int, cycles: float, instructions: int,
               init_ms: float = 0.0, page_ms: float = 0.0,
               first_restore_page_ms: float = 0.0,
               replay_page_ms: float = 0.0,
               faulted_pages: int = 0,
               prefetched_pages: int = 0) -> Dict:
    """Canonical per-point payload (plain scalars, JSON/golden-safe)."""
    exec_ms = (cycles / invocations) / (freq_ghz * 1e6) if invocations else 0.0
    return {
        "regime": regime,
        "iat_ms": iat_ms,
        "invocations": invocations,
        "cycles": cycles,
        "instructions": instructions,
        "exec_ms": exec_ms,
        "init_ms": init_ms,
        "page_ms": page_ms,
        "latency_ms": exec_ms + init_ms + page_ms,
        "first_restore_page_ms": first_restore_page_ms,
        "replay_page_ms": replay_page_ms,
        "faulted_pages": faulted_pages,
        "prefetched_pages": prefetched_pages,
    }


@functools.lru_cache(maxsize=3)
def _sequence(profile: FunctionProfile, machine: MachineParams,
              cfg: RunConfig, config: str) -> Tuple[int, float, int]:
    """Per-process memo of ``run_config(...)``'s immutable
    ``(measured invocations, cycles, instructions)``.

    Keyed on the full ``cfg``, so a scalar re-simulation is never served
    a columnar result.  A function's cells need at most three sequences
    and sweeps run function-major, so three entries suffice (the
    argument :func:`~repro.experiments.common._trace_set` makes for one).
    """
    seq = run_config(profile, machine, cfg, config)
    return len(seq.results), seq.cycles, seq.instructions


@register_config("spectrum_point")
def _build_spectrum_point(profile, machine: MachineParams, cfg: RunConfig,
                          iat_ms: float = 0.0,
                          ttl_ms: float = DEFAULT_TTL_MS,
                          jukebox: bool = False,
                          page_replay: bool = False,
                          init_trim: bool = False) -> Dict:
    """One (function, variant, IAT) cell of the spectrum sweep.

    Warm cells take the ``reference`` sequence, lukewarm and cold cells
    ``baseline`` (``jukebox`` under the toggle), byte-identical to the
    registry's configs (the differential battery pins both), so each
    sequence is simulated once per process (:func:`_sequence`).  Cold
    cells may reuse the lukewarm Jukebox sequence because every
    invocation records something (a flushed invocation's first fetch
    misses the L2), so a snapshot never keeps an older image.  They
    also charge the :mod:`repro.coldstart` model per invocation.
    """
    freq_ghz = machine.core.freq_ghz
    regime = classify_regime(iat_ms, ttl_ms)
    config = ("reference" if regime == REGIME_WARM
              else "jukebox" if jukebox else "baseline")
    n, cycles, instructions = _sequence(profile, machine, cfg, config)
    if regime != REGIME_COLD:
        return _cell_dict(regime, iat_ms, freq_ghz, n, cycles, instructions)

    # Cold regime: every invocation is a snapshot restore.
    model = SpectrumColdStart(profile, page_replay=page_replay,
                              init_trim=init_trim)
    charges = [model.cold_start() for _ in range(cfg.invocations)]
    measured = charges[cfg.warmup:]
    last = measured[-1]
    return _cell_dict(
        regime, iat_ms, freq_ghz, n, cycles, instructions,
        init_ms=sum(c.init_ms for c in measured) / n,
        page_ms=sum(c.page_ms for c in measured) / n,
        first_restore_page_ms=charges[0].page_ms,
        replay_page_ms=last.page_ms,
        faulted_pages=last.faulted_pages,
        prefetched_pages=last.prefetched_pages,
    )


@dataclass
class SpectrumResult:
    """The full sweep: function -> variant -> per-IAT point dicts."""

    iats_ms: List[float]
    ttl_ms: float
    freq_ghz: float
    functions: List[str]
    variants: List[str]
    points: Dict[str, Dict[str, List[Dict]]] = field(default_factory=dict)


def run(cfg: Optional[RunConfig] = None,
        machine: Optional[MachineParams] = None,
        functions: Sequence[str] = DEFAULT_FUNCTIONS,
        iats_ms: Sequence[float] = DEFAULT_IATS_MS,
        ttl_ms: float = DEFAULT_TTL_MS,
        variants: Optional[Sequence[str]] = None) -> SpectrumResult:
    cfg = cfg if cfg is not None else RunConfig()
    machine = machine if machine is not None else skylake()
    names = list(variants) if variants is not None else list(VARIANTS)
    unknown = [v for v in names if v not in VARIANTS]
    if unknown:
        raise ConfigurationError(
            f"unknown spectrum variants: {', '.join(unknown)}; expected "
            f"a subset of {', '.join(VARIANTS)}")
    jobs = [Job.make(get_profile(abbrev), machine, cfg, "spectrum_point",
                     provider=__name__, iat_ms=float(iat),
                     ttl_ms=float(ttl_ms), jukebox=jb, page_replay=pr,
                     init_trim=it)
            for abbrev in functions
            for (jb, pr, it) in (VARIANTS[v] for v in names)
            for iat in iats_ms]
    result = SpectrumResult(iats_ms=[float(i) for i in iats_ms],
                            ttl_ms=float(ttl_ms),
                            freq_ghz=machine.core.freq_ghz,
                            functions=list(functions), variants=names)
    flat = iter(sweep(jobs))
    for abbrev in functions:
        result.points[abbrev] = {}
        for variant in names:
            series = [dict(next(flat)) for _ in iats_ms]
            # Decompose microarchitectural misses against the variant's
            # back-to-back warm anchor (only meaningful with one).
            anchor = next((p["exec_ms"] for p in series
                           if p["regime"] == REGIME_WARM), None)
            for p in series:
                p["uarch_ms"] = (max(0.0, p["exec_ms"] - anchor)
                                 if anchor is not None else None)
            result.points[abbrev][variant] = series
    return result


def _fmt_iat(iat_ms: float) -> str:
    if iat_ms == 0:
        return "0 (b2b)"
    if iat_ms < 60_000:
        return f"{iat_ms / 1000:.0f}s"
    return f"{iat_ms / 60_000:.0f}min"


def render(result: SpectrumResult) -> str:
    tables = []
    for abbrev in result.functions:
        rows = []
        for i, iat in enumerate(result.iats_ms):
            base = result.points[abbrev]["baseline"][i] \
                if "baseline" in result.points[abbrev] \
                else next(iter(result.points[abbrev].values()))[i]
            row: List[object] = [
                _fmt_iat(iat), base["regime"],
                f"{base['latency_ms']:.2f}ms",
                f"{base['init_ms']:.2f}",
                f"{base['page_ms']:.2f}",
                f"{base['exec_ms']:.2f}",
            ]
            for variant in result.variants:
                if variant == "baseline":
                    continue
                p = result.points[abbrev][variant][i]
                delta = p["latency_ms"] - base["latency_ms"]
                row.append(f"{delta:+.2f}")
            rows.append(row)
        headers = (["IAT", "regime", "latency", "init", "page", "exec"]
                   + [f"Δ{v}" for v in result.variants if v != "baseline"])
        tables.append(format_table(
            headers, rows,
            title=f"{abbrev}: cold→lukewarm→warm spectrum "
                  f"(TTL {result.ttl_ms / 60_000:.0f}min)"))
    # Cold-end decomposition headline: which component dominates.
    lines = []
    for abbrev in result.functions:
        series = result.points[abbrev].get("baseline")
        if not series:
            continue
        cold = [p for p in series if p["regime"] == REGIME_COLD]
        if not cold:
            continue
        p = cold[-1]
        startup = p["init_ms"] + p["page_ms"]
        share = startup / p["latency_ms"] if p["latency_ms"] else 0.0
        lines.append(
            f"{abbrev}: cold-end latency {p['latency_ms']:.1f}ms, "
            f"init+page {startup:.1f}ms ({share:.0%}) vs exec "
            f"{p['exec_ms']:.1f}ms")
    return "\n\n".join(tables + ["\n".join(lines)])

"""Machine parameter definitions.

This module encodes Table 1 of the paper (the simulated Skylake-like
processor) plus the Broadwell-like configuration used for the
characterization study (Sec. 4.1) and the cross-platform evaluation
(Sec. 5.6).

All latencies are in core clock cycles; all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import KB, MB, LINE_SIZE, is_power_of_two


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one set-associative cache level."""

    name: str
    size: int
    assoc: int
    latency: int
    line_size: int = LINE_SIZE
    mshrs: int = 10

    def __post_init__(self) -> None:
        if self.assoc <= 0:
            raise ConfigurationError(
                f"{self.name}: associativity must be >= 1, got {self.assoc}; "
                f"use assoc=1 for a direct-mapped cache"
            )
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(
                f"{self.name}: line size must be a power of two, got "
                f"{self.line_size} (the hierarchy assumes {LINE_SIZE}B lines, "
                f"Table 1)"
            )
        if self.latency < 0:
            raise ConfigurationError(
                f"{self.name}: access latency must be >= 0 cycles, "
                f"got {self.latency}"
            )
        if self.mshrs <= 0:
            raise ConfigurationError(
                f"{self.name}: MSHR count must be > 0, got {self.mshrs}; a "
                f"cache with no MSHRs cannot have outstanding misses"
            )
        if self.size <= 0 or self.size % (self.assoc * self.line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size} not divisible into "
                f"{self.assoc}-way sets of {self.line_size}B lines"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"{self.name}: number of sets {self.num_sets} must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size


@dataclass(frozen=True)
class TLBParams:
    """Geometry and timing of one TLB."""

    name: str
    entries: int
    assoc: int
    walk_latency: int = 40

    def __post_init__(self) -> None:
        if self.assoc <= 0:
            raise ConfigurationError(
                f"{self.name}: associativity must be >= 1, got {self.assoc}"
            )
        if self.walk_latency < 0:
            raise ConfigurationError(
                f"{self.name}: page-walk latency must be >= 0 cycles, "
                f"got {self.walk_latency}"
            )
        if self.entries <= 0 or self.entries % self.assoc != 0:
            raise ConfigurationError(
                f"{self.name}: {self.entries} entries not divisible into "
                f"{self.assoc}-way sets"
            )
        if not is_power_of_two(self.entries // self.assoc):
            raise ConfigurationError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class CoreParams:
    """Front-end / back-end parameters of the analytic core model (Table 1)."""

    freq_ghz: float = 2.6
    fetch_bytes_per_cycle: int = 16
    issue_width: int = 4
    rob_entries: int = 224
    #: Pipeline refill penalty charged per direction mispredict (bad speculation).
    mispredict_penalty: int = 15
    #: Fetch bubble charged when a taken branch misses in the BTB (fetch latency).
    btb_miss_penalty: int = 8
    #: Cycles of fetch-group fragmentation charged per taken branch
    #: (fetch bandwidth).
    taken_branch_penalty: float = 0.6
    #: Fraction of a data-miss latency hidden by the out-of-order back-end
    #: (memory-level parallelism / overlap with execution, Sec. 2.4).
    data_overlap: float = 0.65
    #: Fraction of an on-chip (L2/LLC-hit) instruction-miss latency that
    #: stalls the pipeline.  The decoupled front-end and the OoO window hide
    #: part of short fetch bubbles (Top-Down footnote 1 in the paper).
    inst_stall_onchip: float = 0.55
    #: Fraction of a DRAM instruction-miss latency that stalls the pipeline.
    #: Long misses overlap with each other via fetch-ahead through the L1-I
    #: MSHRs, so the *charged* per-miss cost is well below the raw latency
    #: (this is what keeps the perfect-I$ bound at ~+31%, Fig. 10).
    inst_stall_dram: float = 0.32
    #: Direction predictor: 2-bit bimodal + gshare tables (entries each),
    #: as Table 1 lists them; the simulator models direction prediction
    #: per branch site (:class:`repro.sim.branch.SiteBranchModel`).
    bimodal_entries: int = 4096
    gshare_entries: int = 16384
    gshare_history_bits: int = 12
    btb_entries: int = 8192
    btb_assoc: int = 8

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.fetch_bytes_per_cycle <= 0:
            raise ConfigurationError(
                f"core widths must be >= 1, got issue_width="
                f"{self.issue_width} fetch_bytes_per_cycle="
                f"{self.fetch_bytes_per_cycle}"
            )
        for fraction_name in ("data_overlap", "inst_stall_onchip",
                              "inst_stall_dram"):
            value = getattr(self, fraction_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{fraction_name} is a fraction and must lie in [0, 1], "
                    f"got {value}"
                )


@dataclass(frozen=True)
class MemoryParams:
    """DRAM model parameters (Table 1: DDR4-2400, 14-14-14)."""

    #: Latency of a random (row-miss) access, in core cycles.  Roughly
    #: RCD+RP+CL plus controller/queueing overheads at 2.6GHz.
    latency: int = 170
    #: Latency of a row-buffer hit / streaming access, in core cycles.
    row_hit_latency: int = 60
    #: Sustainable bandwidth in bytes per core cycle (DDR4-2400 is 19.2GB/s,
    #: i.e. ~7.4B per 2.6GHz cycle).
    bytes_per_cycle: float = 7.4

    def __post_init__(self) -> None:
        if self.latency <= 0 or self.row_hit_latency <= 0:
            raise ConfigurationError(
                f"DRAM latencies must be positive, got latency={self.latency} "
                f"row_hit_latency={self.row_hit_latency}"
            )
        if self.row_hit_latency > self.latency:
            raise ConfigurationError(
                f"row-hit latency ({self.row_hit_latency}) cannot exceed the "
                f"row-miss latency ({self.latency})"
            )
        if self.bytes_per_cycle <= 0:
            raise ConfigurationError(
                f"DRAM bandwidth must be positive, got "
                f"{self.bytes_per_cycle} bytes/cycle"
            )


@dataclass(frozen=True)
class JukeboxParams:
    """Jukebox configuration (Table 1 bottom row and Sec. 5.1).

    ``metadata_bytes`` is the *per-phase* buffer budget: the paper's
    "32KB metadata size (16KB record + 16KB replay)" corresponds to
    ``metadata_bytes=16*KB`` here, because at any time one buffer is being
    recorded while the other (written by the previous invocation) is being
    replayed.
    """

    crrb_entries: int = 16
    region_size: int = 1 * KB
    metadata_bytes: int = 16 * KB

    def __post_init__(self) -> None:
        if not is_power_of_two(self.region_size) or self.region_size < LINE_SIZE:
            raise ConfigurationError(
                f"region size must be a power of two >= {LINE_SIZE}, "
                f"got {self.region_size}"
            )
        if self.crrb_entries <= 0:
            raise ConfigurationError("CRRB must have at least one entry")
        if self.metadata_bytes <= 0:
            raise ConfigurationError("metadata budget must be positive")

    @property
    def lines_per_region(self) -> int:
        return self.region_size // LINE_SIZE


@dataclass(frozen=True)
class MachineParams:
    """A complete simulated machine: core, cache hierarchy, TLBs, DRAM."""

    name: str
    core: CoreParams
    l1i: CacheParams
    l1d: CacheParams
    l2: CacheParams
    llc: CacheParams
    itlb: TLBParams
    dtlb: TLBParams
    memory: MemoryParams
    jukebox: JukeboxParams = field(default_factory=JukeboxParams)

    def with_jukebox(self, jukebox: JukeboxParams) -> "MachineParams":
        """Return a copy of this machine with a different Jukebox config."""
        return replace(self, jukebox=jukebox)


#: Calibration modes for the analytic core's stall factors.
#:
#: The paper reports two kinds of numbers measured on two different
#: platforms: *characterization* results from perf-counter Top-Down
#: attribution on real hardware (Figs. 1-5: interleaving costs +31-114%
#: CPI, front-end ~half of all cycles) and *evaluation* results from gem5
#: simulation (Figs. 9-13: the perfect-I-cache bound is only +31% because
#: the decoupled front-end and MSHR fetch-ahead overlap the vast majority
#: of raw miss latency).  We mirror that with two stall-factor presets;
#: each experiment uses the preset matching the platform the paper used.
MODE_CHARACTERIZATION = "characterization"
MODE_EVALUATION = "evaluation"

_MODE_FACTORS = {
    MODE_CHARACTERIZATION: dict(inst_stall_onchip=0.30, inst_stall_dram=0.26,
                                data_overlap=0.35),
    MODE_EVALUATION: dict(inst_stall_onchip=0.045, inst_stall_dram=0.055,
                          data_overlap=0.80),
}


def core_params_for_mode(mode: str, freq_ghz: float = 2.6) -> CoreParams:
    """Build :class:`CoreParams` with the given calibration mode's factors."""
    try:
        factors = _MODE_FACTORS[mode]
    except KeyError:
        raise ConfigurationError(
            f"unknown mode {mode!r}; expected one of {sorted(_MODE_FACTORS)}"
        ) from None
    return CoreParams(freq_ghz=freq_ghz, **factors)


def skylake(jukebox: Optional[JukeboxParams] = None,
            mode: str = MODE_EVALUATION) -> MachineParams:
    """The Skylake-like configuration of Table 1 (1MB L2, 8MB LLC)."""
    return MachineParams(
        name="skylake",
        core=core_params_for_mode(mode),
        l1i=CacheParams("L1I", size=32 * KB, assoc=8, latency=4, mshrs=10),
        l1d=CacheParams("L1D", size=32 * KB, assoc=8, latency=12, mshrs=10),
        l2=CacheParams("L2", size=1 * MB, assoc=8, latency=36, mshrs=32),
        llc=CacheParams("LLC", size=8 * MB, assoc=16, latency=36, mshrs=32),
        itlb=TLBParams("ITLB", entries=128, assoc=8),
        dtlb=TLBParams("DTLB", entries=64, assoc=4),
        memory=MemoryParams(),
        jukebox=jukebox if jukebox is not None else JukeboxParams(),
    )


def broadwell(jukebox: Optional[JukeboxParams] = None,
              mode: str = MODE_CHARACTERIZATION) -> MachineParams:
    """The Broadwell-like configuration (Secs. 4.1 and 5.6).

    Distinguishing feature: a small 256KB L2.  The paper finds that the
    small L2 suffers conflict evictions of Jukebox prefetches and needs a
    larger 32KB per-phase metadata store.  The default mode is
    *characterization* because this platform hosts the paper's perf-counter
    studies; the Sec. 5.6 simulation comparison uses
    ``broadwell(mode=MODE_EVALUATION)``.
    """
    if jukebox is None:
        jukebox = JukeboxParams(metadata_bytes=32 * KB)
    return MachineParams(
        name="broadwell",
        core=core_params_for_mode(mode, freq_ghz=2.4),
        l1i=CacheParams("L1I", size=32 * KB, assoc=8, latency=4, mshrs=10),
        l1d=CacheParams("L1D", size=32 * KB, assoc=8, latency=12, mshrs=10),
        l2=CacheParams("L2", size=256 * KB, assoc=8, latency=26, mshrs=20),
        llc=CacheParams("LLC", size=8 * MB, assoc=16, latency=36, mshrs=32),
        itlb=TLBParams("ITLB", entries=128, assoc=8),
        dtlb=TLBParams("DTLB", entries=64, assoc=4),
        memory=MemoryParams(),
        jukebox=jukebox,
    )

"""Per-function calibrated parameters.

A :class:`FunctionProfile` captures everything the trace generator needs to
produce invocations that are statistically equivalent to one of the paper's
20 containerized functions (Table 2): instruction footprint (Fig. 6a),
cross-invocation commonality (Fig. 6b), spatial density (drives Jukebox
metadata size, Fig. 8), loop-heaviness (drives the perfect-I-cache
opportunity spread of Fig. 10) and data working set.

Language defaults encode the paper's observation that "the language in
which the function is written is the single biggest determinant of a given
function's runtime and Jukebox's efficacy" (footnote 4): Go binaries are
compact and dense; Python and NodeJS runtimes have larger, more scattered
instruction footprints whose Jukebox metadata exceeds the 16KB budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import KB, PAGE_SIZE

LANG_PYTHON = "python"
LANG_NODEJS = "nodejs"
LANG_GO = "go"
LANGUAGES = (LANG_PYTHON, LANG_NODEJS, LANG_GO)


@dataclass(frozen=True)
class FunctionProfile:
    """Calibrated generator parameters for one serverless function."""

    name: str
    abbrev: str
    language: str
    application: str
    #: Mean per-invocation instruction footprint (Fig. 6a target).
    footprint_kb: int
    #: Dynamic instructions retired per invocation.
    instructions: int
    #: Data working set (resident blocks touched per invocation).
    data_ws_kb: int
    #: Spatial density of code within segments (Fig. 8 driver).
    density: float
    #: Fraction of footprint in per-invocation-optional segments and the
    #: probability each optional segment executes (Fig. 6b Jaccard driver).
    optional_fraction: float = 0.18
    optional_include_prob: float = 0.6
    #: Fraction of instructions spent in tight loops (low => fetch-latency
    #: sensitive, high perfect-I$ opportunity; high => compute-bound).
    loopiness: float = 0.35
    #: Fraction of footprint in hot (revisited) segments.
    hot_fraction: float = 0.35
    #: Number of request-processing phases per invocation; each phase walks
    #: a temporally clustered subset of segments (drives L1-I locality).
    phases: int = 6
    #: Mean instructions retired per block visit in straight-line code.
    insts_per_block: int = 12
    #: Conditional-branch sites per invocation and their mean bias.
    branch_sites: int = 1200
    branch_bias: float = 0.85

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise ConfigurationError(f"unknown language {self.language!r}")
        if self.footprint_kb < 64:
            raise ConfigurationError(
                f"{self.name}: footprint {self.footprint_kb}KB unrealistically small"
            )
        if self.instructions < 10_000:
            raise ConfigurationError(f"{self.name}: too few instructions")
        if not 0.0 <= self.loopiness <= 0.95:
            raise ConfigurationError(f"{self.name}: loopiness out of range")

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_kb * KB

    @property
    def data_ws_bytes(self) -> int:
        return self.data_ws_kb * KB

    @property
    def code_pages(self) -> int:
        """4KB pages holding the instruction footprint (snapshot-restore
        granularity; :mod:`repro.coldstart.pages` builds on this)."""
        return -(-self.footprint_bytes // PAGE_SIZE)

    @property
    def data_pages(self) -> int:
        """4KB pages holding the per-invocation data working set."""
        return -(-self.data_ws_bytes // PAGE_SIZE)

    def scaled(self, instruction_scale: float) -> "FunctionProfile":
        """Return a profile with instruction volume scaled (used by fast
        test/bench configurations; footprint is preserved so miss behaviour
        per invocation is unchanged, only reuse depth shrinks)."""
        if instruction_scale <= 0:
            raise ConfigurationError("scale must be positive")
        return replace(
            self,
            instructions=max(20_000, int(self.instructions * instruction_scale)),
            phases=max(2, int(round(self.phases * instruction_scale ** 0.5))),
            branch_sites=max(100, int(self.branch_sites * instruction_scale ** 0.5)),
        )


#: Language-level defaults used by the suite definitions.
LANGUAGE_DEFAULTS: Dict[str, Dict[str, float]] = {
    LANG_PYTHON: dict(density=0.52, insts_per_block=11, optional_fraction=0.16,
                      optional_include_prob=0.62),
    LANG_NODEJS: dict(density=0.48, insts_per_block=11, optional_fraction=0.20,
                      optional_include_prob=0.58),
    LANG_GO: dict(density=0.82, insts_per_block=13, optional_fraction=0.14,
                  optional_include_prob=0.65),
}

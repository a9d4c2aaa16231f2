"""Static code layout of a function instance's address space.

Each function instance runs inside its own container with a language
runtime, shared libraries and user code mapped into a 48-bit virtual
address space.  The layout determines the *spatial* structure Jukebox's
region encoding exploits: compiled Go binaries are dense (most cache lines
within a touched 1KB region are used), while interpreter/JIT runtimes
scatter their hot code across many sparsely-used regions.

A layout is a list of :class:`CodeSegment` objects.  Segments are the unit
of control-flow in the trace generator: an invocation is a structured walk
over segments (see :mod:`repro.workloads.function`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import KB, LINE_SIZE

#: Base virtual addresses for the three mapping areas.  Real containers map
#: the runtime, shared libraries and user code at distinct areas of the
#: address space; the exact values only need to be distinct and 48-bit.
RUNTIME_BASE = 0x5555_0000_0000
LIBRARY_BASE = 0x7F10_0000_0000
USER_BASE = 0x0000_4000_0000

ROLE_RUNTIME = "runtime"
ROLE_LIBRARY = "library"
ROLE_USER = "user"
ROLES = (ROLE_RUNTIME, ROLE_LIBRARY, ROLE_USER)

#: Mean segment length in blocks (segments are geometric, 2 to 96 blocks).
_MEAN_SEGMENT_BLOCKS = 14
#: Shares of the footprint laid out as runtime and as library code; user
#: code takes the rest.
_RUNTIME_FRACTION = 0.45
_LIBRARY_FRACTION = 0.30


@dataclass(frozen=True)
class CodeSegment:
    """A logical unit of code (one function body / JIT region / stub).

    ``blocks`` are the cache-line addresses the segment actually executes,
    sorted ascending; they may contain holes when the segment's code is
    sparse within its span.
    """

    name: str
    role: str
    blocks: Tuple[int, ...]
    #: Always executed (core path) or only on some invocations (optional
    #: path) -- optional segments create the <1.0 Jaccard commonality of
    #: Fig. 6b.
    optional: bool = False
    #: Hot segments are revisited many times within one invocation.
    hot: bool = False

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ConfigurationError(f"segment {self.name} has no blocks")
        if self.role not in ROLES:
            raise ConfigurationError(f"segment {self.name}: bad role {self.role!r}")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class CodeLayout:
    """The full code layout of one function instance."""

    segments: Tuple[CodeSegment, ...]


def _segment_blocks(base: int, n_blocks: int, density: float,
                    rng: np.random.Generator) -> Tuple[int, ...]:
    """Pick ``n_blocks`` line addresses starting at ``base`` with the given
    spatial density (used lines / spanned lines)."""
    span_lines = max(n_blocks, int(round(n_blocks / max(density, 0.05))))
    if span_lines == n_blocks:
        offsets = np.arange(n_blocks)
    else:
        offsets = np.sort(rng.choice(span_lines, size=n_blocks, replace=False))
        offsets[0] = 0  # anchor the segment at its base
    return tuple(int(base + off * LINE_SIZE) for off in offsets)


def build_layout(
    footprint_bytes: int,
    density: float,
    optional_fraction: float,
    hot_fraction: float,
    seed: int,
) -> CodeLayout:
    """Generate a layout with the requested aggregate properties.

    Parameters
    ----------
    footprint_bytes:
        Total unique instruction bytes across all segments (the per-
        invocation footprint of Fig. 6a is this minus skipped optionals).
    density:
        Spatial density of code within each segment's span (Go ~0.8+,
        Python/NodeJS ~0.45-0.6).
    optional_fraction:
        Fraction of footprint in per-invocation-optional segments.
    hot_fraction:
        Fraction of footprint in hot (revisited) segments.
    """
    if footprint_bytes < 16 * KB:
        raise ConfigurationError(f"footprint too small: {footprint_bytes}")
    if not 0.0 < density <= 1.0:
        raise ConfigurationError(f"density out of range: {density}")
    if not 0.0 <= optional_fraction < 1.0:
        raise ConfigurationError(f"optional fraction out of range: {optional_fraction}")

    rng = np.random.default_rng(seed)
    total_blocks = footprint_bytes // LINE_SIZE
    role_budget = {
        ROLE_RUNTIME: int(total_blocks * _RUNTIME_FRACTION),
        ROLE_LIBRARY: int(total_blocks * _LIBRARY_FRACTION),
    }
    role_budget[ROLE_USER] = total_blocks - sum(role_budget.values())
    role_base = {
        ROLE_RUNTIME: RUNTIME_BASE,
        ROLE_LIBRARY: LIBRARY_BASE,
        ROLE_USER: USER_BASE,
    }

    segments: List[CodeSegment] = []
    seg_index = 0
    for role in ROLES:
        budget = role_budget[role]
        cursor = role_base[role] + int(rng.integers(0, 64)) * LINE_SIZE
        while budget > 0:
            n_blocks = int(rng.geometric(1.0 / _MEAN_SEGMENT_BLOCKS))
            n_blocks = max(2, min(n_blocks, 96, budget))
            blocks = _segment_blocks(cursor, n_blocks, density, rng)
            # Gap to the next segment: small for dense binaries (code is
            # contiguous), larger for interpreters/JITs.
            gap_lines = int(rng.geometric(density)) * 4
            cursor = blocks[-1] + LINE_SIZE + gap_lines * LINE_SIZE
            segments.append(
                CodeSegment(
                    name=f"{role}_{seg_index}",
                    role=role,
                    blocks=blocks,
                    optional=bool(rng.random() < optional_fraction),
                    hot=bool(rng.random() < hot_fraction),
                )
            )
            seg_index += 1
            budget -= n_blocks

    # Ensure at least one mandatory hot segment per role so every invocation
    # has a spine to walk.
    for role in ROLES:
        role_segs = [s for s in segments if s.role == role]
        if not any((not s.optional) and s.hot for s in role_segs):
            anchor = role_segs[0]
            idx = segments.index(anchor)
            segments[idx] = CodeSegment(
                name=anchor.name, role=anchor.role, blocks=anchor.blocks,
                optional=False, hot=True,
            )
    return CodeLayout(segments=tuple(segments))

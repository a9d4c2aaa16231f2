"""Page-granular snapshot restore with working-set record-and-replay.

Models the data side of a cold boot the way REAP ("Benchmarking,
Analysis, and Optimization of Serverless Function Snapshots") measures
it: a restored instance demand-faults its resident pages one userfaultfd
round-trip at a time, and the set of pages an invocation touches is
*stable* across invocations of the same function.  The first restore
therefore pays the full demand-fault cost while recording the page
trace; every later restore bulk-prefetches the recorded stable set and
demand-faults only the small residue that differs per invocation.

Everything here is pure, deterministic arithmetic over a
:class:`~repro.workloads.profiles.FunctionProfile` -- no wall clock, no
RNG -- so charges are safe inside content-addressed engine jobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import MB, PAGE_SIZE
from repro.workloads.profiles import FunctionProfile

#: Host page size the restore path faults at (the TLB model's page).
PAGE_BYTES = PAGE_SIZE

#: Language-runtime resident set faulted on restore, beyond the
#: function's own code + data working set (interpreter / VM image).
#: Mirrors the 24MB container overhead charged by
#: :meth:`repro.server.instance.WarmInstance.memory_bytes`, split by how
#: heavy each runtime's resident image is.
RUNTIME_RESIDENT_MB = {
    "python": 32,
    "nodejs": 28,
    "go": 6,
}


#: One demand page fault served from the snapshot file: userfaultfd
#: wakeup + read + copy (tens of microseconds, REAP Sec. 5 scale).
FAULT_US = 35.0
#: Per-page cost when the recorded working set is fetched in bulk
#: (sequential reads, batched installs).
PREFETCH_US = 3.2
#: Fixed cost per replayed restore: loading the recorded trace and
#: issuing the prefetch.
REPLAY_OVERHEAD_US = 150.0
#: Fraction of the working set stable across invocations (REAP finds
#: the record/replay set covers nearly all faults).
STABLE_FRACTION = 0.92


@dataclass(frozen=True)
class RestoreCharge:
    """Cost of one snapshot restore, page-fault accounting included."""

    page_ms: float
    faulted_pages: int
    prefetched_pages: int
    #: True when this restore demand-faulted everything and *recorded*
    #: the working-set trace for later replay (the first restore).
    recorded: bool


def working_set_pages(profile: FunctionProfile) -> int:
    """Resident pages a restore of ``profile`` must materialize.

    Code footprint + data working set + the language runtime's resident
    image, rounded up to whole pages.
    """
    runtime_mb = RUNTIME_RESIDENT_MB[profile.language]
    return (profile.code_pages + profile.data_pages
            + runtime_mb * MB // PAGE_BYTES)


@dataclass
class PageReplayState:
    """Record-and-replay state of one instance's snapshot working set.

    The first :meth:`restore` demand-faults all ``pages`` and records
    the stable working set; subsequent restores bulk-prefetch the
    recorded set and demand-fault the per-invocation residue.  With
    ``replay=False`` every restore pays the full demand-fault cost
    (the REAP baseline).
    """

    pages: int
    replay: bool = True
    #: Pages in the recorded stable set (None until first restore).
    recorded_pages: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pages <= 0:
            raise ConfigurationError(
                f"pages must be positive, got {self.pages}")

    def restore(self) -> RestoreCharge:
        """Charge one restore and advance the record/replay state."""
        if not self.replay or self.recorded_pages is None:
            if self.replay:
                # Recording restore: remember the stable working set.
                self.recorded_pages = int(
                    round(self.pages * STABLE_FRACTION))
            return RestoreCharge(
                page_ms=self.pages * FAULT_US / 1000.0,
                faulted_pages=self.pages,
                prefetched_pages=0,
                recorded=self.replay,
            )
        residue = self.pages - self.recorded_pages
        page_ms = (REPLAY_OVERHEAD_US
                   + self.recorded_pages * PREFETCH_US
                   + residue * FAULT_US) / 1000.0
        return RestoreCharge(
            page_ms=page_ms,
            faulted_pages=residue,
            prefetched_pages=self.recorded_pages,
            recorded=False,
        )

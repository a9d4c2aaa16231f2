"""Jukebox replay phase (Sec. 3.3, Fig. 7b).

On a new invocation the OS programs the replay base/limit registers and the
prefetch engine streams the metadata buffer from memory in the order it was
written.  For each entry it:

1. pushes the region's base address through the I-TLB (pre-populating code
   translations);
2. expands the access vector into full block addresses;
3. enqueues L2 prefetches for those blocks.

Timeliness is modeled through per-block *completion cycles*: the engine is
bandwidth-bound, issuing one line fill every ``LINE_SIZE/bytes_per_cycle``
cycles after an initial metadata-read latency.  The hierarchy merges demand
misses with in-flight fills (late prefetches) and installs completed fills
lazily as simulated time advances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core.metadata import MetadataBuffer
from repro.lint import contracts
from repro.units import LINE_SHIFT, LINE_SIZE, PAGE_SHIFT

if TYPE_CHECKING:
    from repro.sim.hierarchy import MemoryHierarchy


@dataclass
class ReplayStats:
    """Accounting of one replay phase."""

    entries_replayed: int = 0
    lines_prefetched: int = 0
    duplicate_lines_skipped: int = 0
    tlb_warmed_pages: int = 0
    metadata_bytes_read: int = 0
    #: Demand-side outcomes filled in by :func:`collect_outcomes`.
    covered: int = 0
    covered_late: int = 0
    overpredicted: int = 0


class JukeboxReplayer:
    """Replay-phase prefetch engine."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.stats = ReplayStats()
        #: prefetch_useful bytes before this replay; used to attribute
        #: first-use credits (at any cache level) back to this replay.
        self._useful_bytes_before = hierarchy.stats.memory.prefetch_useful

    def replay(self, buffer: MetadataBuffer, target: str = "l2",
               bandwidth_share: float = 1.0) -> ReplayStats:
        """Schedule the whole metadata buffer as prefetches.

        ``target`` selects the destination cache: ``"l2"`` is the paper's
        design (Sec. 3.1); ``"l1i"`` is the ablation of prefetching into the
        small L1-I instead.  ``bandwidth_share`` throttles the replay
        engine to a fraction of DRAM bandwidth (timeliness ablation).
        """
        if target not in ("l2", "l1i"):
            raise ValueError(f"unknown replay target {target!r}")
        if not 0.0 < bandwidth_share <= 1.0:
            raise ValueError(f"bandwidth share out of range: {bandwidth_share}")
        hier = self.hierarchy
        memory = hier.memory
        geometry = buffer.geometry
        stats = self.stats

        if len(buffer) == 0:
            return stats
        buffer.validate()
        entries_before = stats.entries_replayed

        metadata_bytes = buffer.size_bytes
        memory.metadata_read(metadata_bytes)
        stats.metadata_bytes_read += metadata_bytes

        fills: List[Tuple[float, int]] = []
        seen_blocks: set = set()
        cycles_per_line = memory.cycles_per_line / bandwidth_share
        # The first prefetch can issue once the first metadata line
        # arrives; invocations start at cycle 0.0, and fill times are
        # floats like every other cycle count.
        t = float(memory.params.row_hit_latency)
        lines_issued = 0
        warmed: set = set()
        for region, vector in buffer:
            base = geometry.region_base(region)
            page = base >> PAGE_SHIFT
            if page not in warmed:
                warmed.add(page)
                hier.itlb.warm(page)
                stats.tlb_warmed_pages += 1
            for addr in geometry.expand(region, vector):
                block = addr >> LINE_SHIFT
                if block in seen_blocks:
                    # A region recorded twice: the second prefetch request
                    # hits in the L2 and is dropped without DRAM traffic.
                    stats.duplicate_lines_skipped += 1
                    continue
                seen_blocks.add(block)
                lines_issued += 1
                completion = t + lines_issued * cycles_per_line
                fills.append((completion, block))
            stats.entries_replayed += 1
        stats.lines_prefetched = lines_issued
        # Runtime contract: record counts must match replayed counts -- every
        # entry the record phase wrote is walked exactly once, and every
        # expanded line was either issued or de-duplicated (repro.lint).
        contracts.check_replay_counts(
            entries_replayed=stats.entries_replayed - entries_before,
            recorded_entries=len(buffer),
            lines_prefetched=lines_issued,
            duplicates_skipped=stats.duplicate_lines_skipped,
            unique_blocks=len(seen_blocks),
        )
        if target == "l2":
            hier.schedule_l2_prefetches(fills)
        else:
            # Ablation: prefetch into the L1-I.  The DRAM traffic is the
            # same; only the destination (and its tiny capacity) changes.
            for _ in fills:
                memory.prefetch_fetch()
            hier.schedule_l1i_prefetches(fills)
        return stats


def collect_outcomes(stats: ReplayStats, hierarchy: MemoryHierarchy,
                     l2_stats_delta, fetch_sources: Dict[str, int]) -> ReplayStats:
    """Fill demand-side replay outcomes after the invocation completed.

    ``l2_stats_delta`` is the per-invocation L2 :class:`AccessStats` delta;
    ``fetch_sources`` is :attr:`InvocationResult.fetch_sources`.
    """
    hierarchy.finish_invocation()
    stats.covered = l2_stats_delta.inst_prefetch_hits
    stats.covered_late = fetch_sources.get("prefetch_late", 0)
    return stats


def finalize_overprediction(stats: ReplayStats,
                            replayer: "JukeboxReplayer") -> ReplayStats:
    """Overpredicted = prefetched lines never demand-referenced anywhere.

    A prefetched line conflict-evicted from the L2 but later served from
    its LLC copy was still useful (its DRAM fetch replaced a demand fetch),
    so overprediction is counted from the first-use *credits* rather than
    from L2 evictions: every useful line was credited exactly once, at the
    level where it was first demand-referenced.
    """
    useful_bytes = (replayer.hierarchy.stats.memory.prefetch_useful
                    - replayer._useful_bytes_before)
    useful_lines = useful_bytes // LINE_SIZE
    stats.overpredicted = max(0, stats.lines_prefetched - useful_lines)
    return stats

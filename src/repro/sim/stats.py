"""Statistics counters for caches, TLBs and memory.

The hierarchy distinguishes *instruction* from *data* traffic and *demand*
from *prefetch* traffic so the experiments can regenerate the paper's MPKI
breakdowns (Fig. 5), coverage plots (Fig. 11) and bandwidth plots (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.lint import contracts


@dataclass
class AccessStats:
    """Hit/miss counters split by instruction vs. data traffic."""

    inst_hits: int = 0
    inst_misses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    #: Demand accesses that hit a line installed by a prefetcher.
    inst_prefetch_hits: int = 0
    data_prefetch_hits: int = 0
    #: Lines installed by a prefetcher that were evicted unused.
    prefetched_unused: int = 0

    @property
    def accesses(self) -> int:
        return self.inst_hits + self.inst_misses + self.data_hits + self.data_misses

    @property
    def hits(self) -> int:
        return self.inst_hits + self.data_hits

    @property
    def misses(self) -> int:
        return self.inst_misses + self.data_misses

    def mpki(self, instructions: int, kind: str = "all") -> float:
        """Misses per kilo-instruction for ``kind`` in {'inst','data','all'}."""
        if instructions <= 0:
            return 0.0
        if kind == "inst":
            misses = self.inst_misses
        elif kind == "data":
            misses = self.data_misses
        elif kind == "all":
            misses = self.misses
        else:
            raise ValueError(f"unknown miss kind {kind!r}")
        return 1000.0 * misses / instructions

    def snapshot(self) -> "AccessStats":
        return AccessStats(
            inst_hits=self.inst_hits,
            inst_misses=self.inst_misses,
            data_hits=self.data_hits,
            data_misses=self.data_misses,
            inst_prefetch_hits=self.inst_prefetch_hits,
            data_prefetch_hits=self.data_prefetch_hits,
            prefetched_unused=self.prefetched_unused,
        )

    def delta(self, earlier: "AccessStats") -> "AccessStats":
        """Return counters accumulated since ``earlier`` (a snapshot)."""
        return AccessStats(
            inst_hits=self.inst_hits - earlier.inst_hits,
            inst_misses=self.inst_misses - earlier.inst_misses,
            data_hits=self.data_hits - earlier.data_hits,
            data_misses=self.data_misses - earlier.data_misses,
            inst_prefetch_hits=self.inst_prefetch_hits - earlier.inst_prefetch_hits,
            data_prefetch_hits=self.data_prefetch_hits - earlier.data_prefetch_hits,
            prefetched_unused=self.prefetched_unused - earlier.prefetched_unused,
        )

    def reset(self) -> None:
        self.inst_hits = 0
        self.inst_misses = 0
        self.data_hits = 0
        self.data_misses = 0
        self.inst_prefetch_hits = 0
        self.data_prefetch_hits = 0
        self.prefetched_unused = 0

    def validate(self, name: str = "") -> None:
        """Contract check: counters balance and nothing went negative."""
        contracts.check_access_stats(self, name=name)


@dataclass
class MemoryTraffic:
    """DRAM traffic accounting in bytes, by traffic class (Fig. 12)."""

    demand_inst: int = 0
    demand_data: int = 0
    prefetch_useful: int = 0
    prefetch_overpredicted: int = 0
    metadata_record: int = 0
    metadata_replay: int = 0

    @property
    def total(self) -> int:
        return (
            self.demand_inst
            + self.demand_data
            + self.prefetch_useful
            + self.prefetch_overpredicted
            + self.metadata_record
            + self.metadata_replay
        )

    @property
    def baseline_equivalent(self) -> int:
        """Traffic that a no-prefetcher baseline would also incur.

        Correct timely prefetches replace demand fetches one-for-one
        (Sec. 5.4: "Jukebox does not change the amount of bandwidth consumed
        for correct timely prefetches"), so the baseline-equivalent traffic
        is demand plus useful-prefetch bytes.
        """
        return self.demand_inst + self.demand_data + self.prefetch_useful

    @property
    def overhead(self) -> int:
        """Extra bytes relative to the no-prefetcher baseline."""
        return (
            self.prefetch_overpredicted + self.metadata_record + self.metadata_replay
        )

    def overhead_fraction(self) -> float:
        base = self.baseline_equivalent
        if base == 0:
            return 0.0
        return self.overhead / base

    def snapshot(self) -> "MemoryTraffic":
        return MemoryTraffic(
            demand_inst=self.demand_inst,
            demand_data=self.demand_data,
            prefetch_useful=self.prefetch_useful,
            prefetch_overpredicted=self.prefetch_overpredicted,
            metadata_record=self.metadata_record,
            metadata_replay=self.metadata_replay,
        )

    def delta(self, earlier: "MemoryTraffic") -> "MemoryTraffic":
        return MemoryTraffic(
            demand_inst=self.demand_inst - earlier.demand_inst,
            demand_data=self.demand_data - earlier.demand_data,
            prefetch_useful=self.prefetch_useful - earlier.prefetch_useful,
            prefetch_overpredicted=(
                self.prefetch_overpredicted - earlier.prefetch_overpredicted
            ),
            metadata_record=self.metadata_record - earlier.metadata_record,
            metadata_replay=self.metadata_replay - earlier.metadata_replay,
        )

    def reset(self) -> None:
        self.demand_inst = 0
        self.demand_data = 0
        self.prefetch_useful = 0
        self.prefetch_overpredicted = 0
        self.metadata_record = 0
        self.metadata_replay = 0

    def validate(self, name: str = "memory traffic") -> None:
        """Contract check: demand/metadata traffic classes are sane."""
        contracts.check_memory_traffic(self, name=name)


@dataclass
class HierarchyStats:
    """Per-level access stats plus DRAM traffic for one hierarchy."""

    l1i: AccessStats = field(default_factory=AccessStats)
    l1d: AccessStats = field(default_factory=AccessStats)
    l2: AccessStats = field(default_factory=AccessStats)
    llc: AccessStats = field(default_factory=AccessStats)
    itlb: AccessStats = field(default_factory=AccessStats)
    dtlb: AccessStats = field(default_factory=AccessStats)
    memory: MemoryTraffic = field(default_factory=MemoryTraffic)

    def levels(self) -> Dict[str, AccessStats]:
        return {
            "l1i": self.l1i,
            "l1d": self.l1d,
            "l2": self.l2,
            "llc": self.llc,
            "itlb": self.itlb,
            "dtlb": self.dtlb,
        }

    def snapshot(self) -> "HierarchyStats":
        return HierarchyStats(
            l1i=self.l1i.snapshot(),
            l1d=self.l1d.snapshot(),
            l2=self.l2.snapshot(),
            llc=self.llc.snapshot(),
            itlb=self.itlb.snapshot(),
            dtlb=self.dtlb.snapshot(),
            memory=self.memory.snapshot(),
        )

    def delta(self, earlier: "HierarchyStats") -> "HierarchyStats":
        return HierarchyStats(
            l1i=self.l1i.delta(earlier.l1i),
            l1d=self.l1d.delta(earlier.l1d),
            l2=self.l2.delta(earlier.l2),
            llc=self.llc.delta(earlier.llc),
            itlb=self.itlb.delta(earlier.itlb),
            dtlb=self.dtlb.delta(earlier.dtlb),
            memory=self.memory.delta(earlier.memory),
        )

    def reset(self) -> None:
        for stats in self.levels().values():
            stats.reset()
        self.memory.reset()

    def validate(self, name: str = "hierarchy") -> None:
        """Contract check across every level plus DRAM traffic."""
        contracts.check_hierarchy_stats(self, name=name)

"""The memory hierarchy: L1-I, L1-D, private unified L2, shared LLC, TLBs
and DRAM, plus the prefetch-fill plumbing Jukebox and PIF hook into.

Demand accesses are *charged* stall cycles according to the level that
serves them, scaled by the core's overlap factors (see
:class:`repro.sim.params.CoreParams`).  Raw and charged latencies are both
returned so callers can account Top-Down categories.

Prefetch fills arrive through two scheduled queues:

* the **L2 fill queue** (Jukebox replay, Sec. 3.3): entries carry a
  completion cycle computed from the DRAM streaming bandwidth; fills are
  drained into the L2 lazily as simulated time advances.  A demand miss to
  a block whose fill is still in flight merges with it and waits only the
  remaining time (a *late* prefetch).
* the **L1-I fill queue** (PIF, Sec. 5.5) with the same semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.sim.cache import SetAssocCache
from repro.sim.memory import MainMemory
from repro.sim.params import MachineParams
from repro.sim.stats import HierarchyStats
from repro.sim.tlb import TLB
from repro.units import LINE_SHIFT, PAGE_SHIFT


class RecordHook(Protocol):
    """Callback interface for prefetcher record logic.

    A hook whose record logic is keyed purely on L2 misses, like
    Jukebox's, may advertise it with a class attribute
    ``fetch_is_noop = True``.  The declaration promises two things:
    :meth:`on_fetch` is a no-op, and :meth:`on_l2_inst_miss` neither
    reads ``cycle`` nor touches cache, TLB or fill-queue state.  The
    columnar backend then keeps its bulk walk classes enabled while the
    hook is installed, calling :meth:`on_l2_inst_miss` once per L2 miss or
    prefetched L2 hit of a bulk walk, in walk order, with the walk's start
    cycle.  Omitting the attribute is always safe -- it only costs the
    fast path: PIF, whose :meth:`on_fetch` trains and issues fills, and
    the JB+PIF tee run event by event.
    """

    def on_l2_inst_miss(self, block_vaddr: int, cycle: float) -> None:
        """Called when an L1-I miss also missed in the L2 (Sec. 3.2)."""

    def on_fetch(self, block_vaddr: int, cycle: float) -> None:
        """Called on every demand instruction-block fetch (PIF training)."""


class FillQueue:
    """A time-ordered queue of prefetch fills heading to one cache level."""

    def __init__(self) -> None:
        self._schedule: List[Tuple[float, int]] = []
        self._next = 0
        self.inflight: Dict[int, float] = {}

    def schedule(self, fills: List[Tuple[float, int]]) -> None:
        """Append ``(completion_cycle, block)`` fills (must be time-ordered)."""
        self._schedule.extend(fills)
        for completion, block in fills:
            # Keep the earliest completion if a block is scheduled twice.
            if block not in self.inflight or completion < self.inflight[block]:
                self.inflight[block] = completion

    def drain(self, cycle: float) -> List[int]:
        """Pop all fills with completion <= ``cycle``; return their blocks."""
        done: List[int] = []
        sched = self._schedule
        i = self._next
        n = len(sched)
        while i < n and sched[i][0] <= cycle:
            block = sched[i][1]
            done.append(block)
            self.inflight.pop(block, None)
            i += 1
        self._next = i
        return done

    def completion_of(self, block: int) -> Optional[float]:
        return self.inflight.get(block)

    def take(self, block: int) -> None:
        """Remove ``block`` from in-flight (a demand merge consumed it)."""
        self.inflight.pop(block, None)

    @property
    def pending(self) -> int:
        return len(self._schedule) - self._next

    def clear(self) -> None:
        self._schedule.clear()
        self._next = 0
        self.inflight.clear()


class MemoryHierarchy:
    """A full private-L1/L2 + shared-LLC hierarchy for one core."""

    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.stats = HierarchyStats()
        self.l1i = SetAssocCache(machine.l1i)
        self.l1d = SetAssocCache(machine.l1d)
        self.l2 = SetAssocCache(machine.l2)
        self.llc = SetAssocCache(machine.llc)
        self.itlb = TLB(machine.itlb)
        self.dtlb = TLB(machine.dtlb)
        self.memory = MainMemory(machine.memory, self.stats.memory)
        #: Prefetch fill queues (Jukebox -> L2, PIF -> L1-I).
        self.l2_fills = FillQueue()
        self.l1i_fills = FillQueue()
        #: Optional prefetcher hooks (record logic / PIF training).
        self.record_hook: Optional[RecordHook] = None
        #: Perfect-I-cache mode: an infinite magic I-cache that accumulates
        #: the union footprint across invocations and survives flushes
        #: (Sec. 5.2, configuration (3)).
        self.perfect_icache = False
        self._perfect_blocks: set = set()
        #: Whether completed L1-I prefetch fills also allocate in L2/LLC
        #: (the normal fill path).  The prefetch-into-L1-I ablation sets
        #: this False to model non-allocating L1-only prefetch requests.
        self.l1i_fill_allocates_lower = True
        # Cached core overlap factors (hot path).
        core = machine.core
        self._f_onchip = core.inst_stall_onchip
        self._f_dram = core.inst_stall_dram
        self._f_data = 1.0 - core.data_overlap
        self._itlb_walk = machine.itlb.walk_latency
        self._dtlb_walk = machine.dtlb.walk_latency
        self._l2_lat = machine.l2.latency
        self._llc_lat = machine.llc.latency

    # ------------------------------------------------------------------
    # Demand paths
    # ------------------------------------------------------------------

    def access_instr(self, addr: int, cycle: float) -> Tuple[float, str]:
        """Demand instruction fetch of the block containing ``addr``.

        Returns ``(charged_stall_cycles, serving_level)`` where the level is
        one of ``l1 | l2 | llc | memory | prefetch_late | perfect``.
        """
        block = addr >> LINE_SHIFT
        stats = self.stats
        stall = 0.0

        if not self.itlb.access(addr >> PAGE_SHIFT):
            stats.itlb.inst_misses += 1
            stall += self._itlb_walk * self._f_onchip
        else:
            stats.itlb.inst_hits += 1

        hook = self.record_hook
        if hook is not None:
            hook.on_fetch(addr, cycle)

        if self.l1i_fills.inflight or self.l1i_fills.pending:
            for b in self.l1i_fills.drain(cycle):
                self._install_l1i_fill(b)
        if self.l2_fills.inflight or self.l2_fills.pending:
            for b in self.l2_fills.drain(cycle):
                # Replay fills take the normal fill path: they install into
                # the (non-inclusive) LLC as well, so a prefetched line
                # conflict-evicted from a small L2 can still be served from
                # the LLC (the Broadwell effect of Table 3).
                self.llc.insert(b, prefetch=True)
                _evicted, unused = self.l2.insert(b, prefetch=True)
                if unused:
                    stats.l2.prefetched_unused += 1

        if self.perfect_icache and block in self._perfect_blocks:
            stats.l1i.inst_hits += 1
            return stall, "perfect"

        hit, was_pf = self.l1i.lookup(block)
        if hit:
            stats.l1i.inst_hits += 1
            if was_pf:
                stats.l1i.inst_prefetch_hits += 1
                self._first_use_of_prefetched_line(block, addr, cycle, hook)
            if self.perfect_icache:
                self._perfect_blocks.add(block)
            return stall, "l1"
        stats.l1i.inst_misses += 1
        l1i_inflight = self.l1i_fills.completion_of(block)
        if l1i_inflight is not None:
            l2_inflight = self.l2_fills.completion_of(block)
            if self.l2.contains(block) or (
                    l2_inflight is not None and l2_inflight <= l1i_inflight):
                # The line is already on-chip or an earlier Jukebox replay
                # fill will deliver it sooner: the demand takes the L2
                # path; the slower in-flight L1-I prefetch is moot.
                self.l1i_fills.take(block)
                l1i_inflight = None
        if l1i_inflight is not None:
            # Merge with an in-flight PIF prefetch (late coverage).  The
            # wait costs what a demand miss of the same remaining depth
            # would: a prefetch issued moments before the demand arrives
            # buys nothing (this is the re-indexing penalty that caps PIF,
            # Sec. 5.5).
            self.l1i_fills.take(block)
            # Serial dependency: the core waits out the remaining fill time
            # in full -- the MLP discount (inst_stall_dram) only applies to
            # independent demand misses overlapped by fetch-ahead; a core
            # chained to its own prefetcher's fill queue gets no overlap.
            # Capped at the demand-equivalent charge: merging with an MSHR
            # is never slower than issuing the demand miss itself.
            demand_equiv = ((self._l2_lat + self._llc_lat) * self._f_onchip
                            + self.memory.params.latency * self._f_dram)
            stall += min(max(0.0, l1i_inflight - cycle), demand_equiv)
            stats.l1i.inst_prefetch_hits += 1
            if self.l1i_fill_allocates_lower and not self.l2.contains(block):
                self.llc.insert(block)
                self.l2.insert(block)
            self._first_use_of_prefetched_line(block, addr, cycle, hook)
            self.l1i.insert(block)
            if self.perfect_icache:
                self._perfect_blocks.add(block)
            return stall, "l1_prefetch_late"
        if self.perfect_icache:
            self._perfect_blocks.add(block)

        level: str
        hit, was_pf = self.l2.lookup(block)
        if hit:
            stats.l2.inst_hits += 1
            if was_pf:
                stats.l2.inst_prefetch_hits += 1
                self.memory.credit_useful_prefetch()
                self.llc.clear_prefetch_flag(block)
                # The first use of a prefetched line is recorded as if it
                # had missed: without this, metadata recorded *while a
                # replay covers the working set* would be empty and the
                # design would oscillate between covered and uncovered
                # invocations (an implementation detail the paper leaves
                # implicit; see DESIGN.md).
                if hook is not None:
                    hook.on_l2_inst_miss(addr, cycle)
            stall += self._l2_lat * self._f_onchip
            level = "l2"
        else:
            stats.l2.inst_misses += 1
            if hook is not None:
                hook.on_l2_inst_miss(addr, cycle)
            inflight = self.l2_fills.completion_of(block)
            if inflight is not None:
                # Merge with the in-flight Jukebox prefetch: wait for it,
                # then take an L2 hit.  Counts as (late) coverage.
                self.l2_fills.take(block)
                wait = max(0.0, inflight - cycle)
                # Same serial-wait rule and demand-equivalent cap as for
                # L1-I merges (see above).
                demand_equiv = (self._llc_lat * self._f_onchip
                                + self.memory.params.latency * self._f_dram)
                stall += min(wait, demand_equiv) + self._l2_lat * self._f_onchip
                stats.l2.inst_prefetch_hits += 1
                self.memory.credit_useful_prefetch()
                self.llc.clear_prefetch_flag(block)
                # The line was charged to prefetch traffic when scheduled.
                self._fill_after_l2_inst_miss(block, fill_llc=True)
                level = "prefetch_late"
            else:
                hit_llc, llc_pf = self.llc.lookup(block)
                contention = self.memory.contention
                if hit_llc:
                    stats.llc.inst_hits += 1
                    if llc_pf:
                        stats.llc.inst_prefetch_hits += 1
                        self.memory.credit_useful_prefetch()
                    # The shared LLC and interconnect queue behind
                    # co-tenant traffic on a loaded server.
                    stall += ((self._l2_lat + self._llc_lat * contention)
                              * self._f_onchip)
                    level = "llc"
                else:
                    stats.llc.inst_misses += 1
                    raw = self.memory.demand_fetch(instruction=True)
                    stall += ((self._l2_lat + self._llc_lat * contention)
                              * self._f_onchip)
                    stall += raw * self._f_dram
                    level = "memory"
                self._fill_after_l2_inst_miss(block, fill_llc=not hit_llc)
        self.l1i.insert(block)
        return stall, level

    def _first_use_of_prefetched_line(self, block: int, addr: int,
                                      cycle: float, hook) -> None:
        """A demand reference consumed a prefetched line at the L1-I: mark
        the lower-level copies used (bandwidth credit) and let the record
        logic see the first use, exactly as on an L2 prefetched hit --
        otherwise prefetchers stacked above the L2 would starve Jukebox's
        record stream."""
        used_l2 = self.l2.clear_prefetch_flag(block)
        used_llc = self.llc.clear_prefetch_flag(block)
        if used_l2 or used_llc:
            self.memory.credit_useful_prefetch()
            if hook is not None:
                hook.on_l2_inst_miss(addr, cycle)

    def _fill_after_l2_inst_miss(self, block: int, fill_llc: bool) -> None:
        if fill_llc:
            self.llc.insert(block)
        _, unused = self.l2.insert(block)
        if unused:
            self.stats.l2.prefetched_unused += 1

    def access_data(self, addr: int, write: bool, cycle: float) -> Tuple[float, str]:
        """Demand data access.  Returns ``(charged_stall_cycles, level)``."""
        block = addr >> LINE_SHIFT
        stats = self.stats
        stall = 0.0

        if not self.dtlb.access(addr >> PAGE_SHIFT):
            stats.dtlb.data_misses += 1
            stall += self._dtlb_walk * self._f_data
        else:
            stats.dtlb.data_hits += 1

        hit, was_pf = self.l1d.lookup(block)
        if hit:
            stats.l1d.data_hits += 1
            if was_pf:
                stats.l1d.data_prefetch_hits += 1
            return stall, "l1"
        stats.l1d.data_misses += 1

        # Stores miss into a write-allocate hierarchy but do not stall the
        # core (they retire through the store buffer).
        charge = 0.0 if write else 1.0

        hit, _ = self.l2.lookup(block)
        if hit:
            stats.l2.data_hits += 1
            stall += self._l2_lat * self._f_data * charge
            level = "l2"
        else:
            stats.l2.data_misses += 1
            hit_llc, _ = self.llc.lookup(block)
            contention = self.memory.contention
            if hit_llc:
                stats.llc.data_hits += 1
                stall += ((self._l2_lat + self._llc_lat * contention)
                          * self._f_data * charge)
                level = "llc"
            else:
                stats.llc.data_misses += 1
                raw = self.memory.demand_fetch(instruction=False)
                stall += ((self._l2_lat + self._llc_lat * contention + raw)
                          * self._f_data * charge)
                level = "memory"
                self.llc.insert(block)
            self.l2.insert(block)
        self.l1d.insert(block)
        self._next_line_fill(block + 1)
        return stall, level

    def _next_line_fill(self, block: int) -> None:
        """L1-D next-line prefetch (Table 1): fill from L2/LLC if present
        on-chip."""
        if self.l1d.contains(block):
            return
        if self.l2.contains(block) or self.llc.contains(block):
            self.l1d.insert(block, prefetch=True)

    # ------------------------------------------------------------------
    # Prefetch entry points
    # ------------------------------------------------------------------

    def schedule_l2_prefetches(self, fills: List[Tuple[float, int]]) -> None:
        """Schedule Jukebox replay fills (blocks given as *block numbers*)."""
        for _, _block in fills:
            self.memory.prefetch_fetch()
        self.l2_fills.schedule(fills)

    def schedule_l1i_prefetches(self, fills: List[Tuple[float, int]]) -> None:
        """Schedule PIF fills into the L1-I."""
        self.l1i_fills.schedule(fills)

    def prefetch_source_latency(self, block: int) -> Tuple[float, bool]:
        """Latency to fetch ``block`` for a prefetcher, and whether the fill
        comes from DRAM.  Does not disturb LRU state and installs nothing:
        the line only becomes visible when its fill completes (the fill
        queue installs it into L1-I/L2/LLC at drain time)."""
        if self.l2.contains(block):
            return float(self._l2_lat), False
        if self.llc.contains(block):
            return float(self._l2_lat + self._llc_lat), False
        latency = self.memory.prefetch_fetch()
        return float(self._l2_lat + self._llc_lat + latency), True

    def finish_invocation(self) -> None:
        """Flush fill queues at invocation end; remaining in-flight or
        never-referenced prefetched lines count as overpredictions when
        they are evicted or when stats are collected."""
        for b in self.l2_fills.drain(float("inf")):
            self.llc.insert(b, prefetch=True)
            _, unused = self.l2.insert(b, prefetch=True)
            if unused:
                self.stats.l2.prefetched_unused += 1
        self.l2_fills.clear()
        for b in self.l1i_fills.drain(float("inf")):
            self._install_l1i_fill(b)
        self.l1i_fills.clear()

    def _install_l1i_fill(self, block: int) -> None:
        """Install a completed L1-I prefetch fill.  It also installs into
        the lower levels it travelled through, unless L1-I fills do not
        allocate there (the prefetch-into-L1-I ablation)."""
        if self.l1i_fill_allocates_lower and not self.l2.contains(block):
            self.llc.insert(block, prefetch=True)
            self.l2.insert(block, prefetch=True)
        self.l1i.insert(block, prefetch=True)

    # ------------------------------------------------------------------
    # State management for interleaving experiments
    # ------------------------------------------------------------------

    def flush_caches(self) -> None:
        """Flush all caches and TLBs (the paper's interleaved baseline,
        Sec. 5.2).  The perfect-I-cache set survives by design."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.llc.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self.l2_fills.clear()
        self.l1i_fills.clear()

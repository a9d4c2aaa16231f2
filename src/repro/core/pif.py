"""PIF: Proactive Instruction Fetch (Ferdman et al., MICRO 2011) baseline.

PIF is the state-of-the-art temporal-streaming instruction prefetcher the
paper compares against (Sec. 5.5).  It records the sequence of retired
instruction-block addresses into stream storage, with an index mapping a
trigger address to the most recent stream starting there.  At run time it
follows the recorded stream with a finite lookahead, prefetching into the
*L1-I*; whenever the observed fetch stream diverges from the replayed one,
it stops and *re-indexes*, which is exactly what prevents it from running
far enough ahead to hide DRAM latency for lukewarm invocations.

Two configurations, as in the paper:

* ``PIF``: 49KB index + 164KB stream storage, state does **not** survive
  across invocations (like all other microarchitectural state, it is
  obliterated by interleaving), so only intra-invocation reuse helps;
* ``PIF-ideal``: unlimited index and stream storage that persist across
  invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.units import KB, LINE_SHIFT

if TYPE_CHECKING:
    from repro.sim.hierarchy import MemoryHierarchy

#: Bytes of storage per recorded stream element (a compacted instruction
#: block address); used to convert the paper's KB budgets into entries.
_STREAM_ENTRY_BYTES = 7
_INDEX_ENTRY_BYTES = 6


@dataclass(frozen=True)
class PIFParams:
    """PIF configuration (Sec. 5.5 uses the parameters from [16])."""

    index_bytes: int = 49 * KB
    stream_bytes: int = 164 * KB
    lookahead: int = 12
    persistent: bool = False

    @property
    def index_capacity(self) -> int:
        return self.index_bytes // _INDEX_ENTRY_BYTES

    @property
    def stream_capacity(self) -> int:
        return self.stream_bytes // _STREAM_ENTRY_BYTES


def pif_ideal_params() -> PIFParams:
    """The PIF-ideal configuration: persistent metadata, unlimited through
    its byte budgets."""
    return PIFParams(index_bytes=1 << 30, stream_bytes=1 << 30,
                     persistent=True)


class PIF:
    """Temporal-streaming record/replay prefetcher targeting the L1-I."""

    def __init__(self, params: PIFParams,
                 hierarchy: Optional[MemoryHierarchy] = None) -> None:
        self.params = params
        self.hierarchy = hierarchy
        #: Recorded stream of block numbers (history buffer).
        self._stream: List[int] = []
        #: Block number -> most recent stream position.
        self._index: Dict[int, int] = {}
        #: Replay pointer into the stream (None = not following).
        self._pointer: Optional[int] = None
        self._last_block: Optional[int] = None

    # -- RecordHook interface -------------------------------------------

    def on_fetch(self, vaddr: int, cycle: float) -> None:
        """Observe a retired/fetched instruction block: train and replay."""
        block = vaddr >> LINE_SHIFT
        if block == self._last_block:
            return
        self._last_block = block
        # Follow first so the re-index lookup sees the *previous* stream
        # occurrence of this block, then record the new occurrence.
        self._follow(block, cycle)
        self._record(block)

    def on_l2_inst_miss(self, vaddr: int, cycle: float) -> None:
        """PIF trains on the retired-instruction stream, not L2 misses."""

    # -- record ----------------------------------------------------------

    def _record(self, block: int) -> None:
        stream = self._stream
        if len(stream) >= self.params.stream_capacity:
            # Circular history: drop the oldest half (coarse wrap model that
            # keeps positions monotonic without renumbering every entry).
            drop = len(stream) // 2
            del stream[:drop]
            threshold = drop
            self._index = {b: p - drop for b, p in self._index.items()
                           if p >= threshold}
            if self._pointer is not None:
                self._pointer = max(0, self._pointer - drop)
        stream.append(block)
        if len(self._index) < self.params.index_capacity or block in self._index:
            self._index[block] = len(stream) - 1

    # -- replay ----------------------------------------------------------

    def _follow(self, block: int, cycle: float) -> None:
        ptr = self._pointer
        stream = self._stream
        if ptr is not None:
            # Accept the demand block if it appears within a small window
            # ahead of the pointer (minor reordering tolerance).
            window_end = min(len(stream), ptr + 4)
            matched = None
            for i in range(ptr, window_end):
                if stream[i] == block:
                    matched = i
                    break
            if matched is not None:
                self._pointer = matched + 1
                self._issue_lookahead(cycle)
                return
            # Divergence: the replayed stream was wrong.  PIF stops
            # prefetching and re-indexes (Sec. 5.5); everything issued for
            # the dead stream -- in-flight fills and installed-but-unused
            # lines -- is squashed.  This is the mechanism that prevents
            # PIF from running far enough ahead to hide DRAM latency.
            self._pointer = None
            self._squash()
        # Re-index: find the most recent stream starting at this block.
        pos = self._index.get(block)
        if pos is not None and pos < len(stream):
            self._pointer = pos + 1
            self._issue_lookahead(cycle)

    def _issue_lookahead(self, cycle: float) -> None:
        hier = self.hierarchy
        if hier is None or self._pointer is None:
            return
        fills: List[Tuple[float, int]] = []
        end = min(len(self._stream), self._pointer + self.params.lookahead)
        for i in range(self._pointer, end):
            block = self._stream[i]
            if hier.l1i.contains(block):
                continue
            if hier.l1i_fills.completion_of(block) is not None:
                continue
            latency, _from_dram = hier.prefetch_source_latency(block)
            fills.append((cycle + latency, block))
        if fills:
            fills.sort(key=lambda item: item[0])
            hier.schedule_l1i_prefetches(fills)

    def _squash(self) -> None:
        hier = self.hierarchy
        if hier is None:
            return
        hier.l1i_fills.clear()
        hier.l1i.invalidate_unused_prefetches()

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Interleaving obliterated the on-chip state.  Non-persistent PIF
        loses everything; PIF-ideal keeps its metadata but the replay
        pointer (a core register) still resets."""
        self._pointer = None
        self._last_block = None
        if not self.params.persistent:
            self._stream.clear()
            self._index.clear()

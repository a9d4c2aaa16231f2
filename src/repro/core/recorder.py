"""Jukebox record phase (Sec. 3.2, Fig. 7a).

The recorder sits logically at the L1-I: it observes L1-I misses that also
missed in the L2 (all L2 hits are filtered) and coalesces them through the
CRRB into the in-memory metadata buffer.  Evicted CRRB entries are written
to memory, bypassing the cache hierarchy; the write traffic is charged to
the ``metadata_record`` DRAM traffic class (Fig. 12).
"""

from __future__ import annotations

from typing import Optional

from repro.core.crrb import CRRB
from repro.core.metadata import MetadataBuffer
from repro.core.regions import RegionGeometry
from repro.sim.memory import MainMemory
from repro.sim.params import JukeboxParams


class JukeboxRecorder:
    """Record-phase logic; implements the hierarchy's record hook."""

    def __init__(self, params: JukeboxParams, buffer: MetadataBuffer,
                 memory: Optional[MainMemory] = None) -> None:
        self.params = params
        self.geometry = buffer.geometry
        self.buffer = buffer
        self.crrb = CRRB(params.crrb_entries, self.geometry)
        self.memory = memory
        self.l2_misses_seen = 0
        self.entries_written = 0
        self._active = True

    # -- RecordHook interface -------------------------------------------

    def on_l2_inst_miss(self, block_vaddr: int, cycle: float) -> None:
        """An L1-I miss returned from beyond the L2: record it."""
        if not self._active:
            return
        self.l2_misses_seen += 1
        evicted = self.crrb.record(block_vaddr)
        if evicted is not None:
            self._write_entry(evicted)

    #: Advertised to the columnar backend (see RecordHook docs):
    #: :meth:`on_fetch` is a no-op, and :meth:`on_l2_inst_miss` never reads
    #: ``cycle`` and touches only the CRRB, the metadata buffer and the
    #: metadata-write traffic, so a bulk walk may report its misses (and
    #: prefetched L2 hits) at once, in walk order.
    fetch_is_noop = True

    def on_fetch(self, block_vaddr: int, cycle: float) -> None:
        """L1-I demand fetch: Jukebox's record logic ignores L2 hits."""

    # -- lifecycle -------------------------------------------------------

    def _write_entry(self, entry) -> None:
        if self.buffer.append(entry):
            self.entries_written += 1
            if self.memory is not None:
                self.memory.metadata_write(-(-self.geometry.entry_bits // 8))

    def finish(self) -> MetadataBuffer:
        """End of the invocation: drain the CRRB in FIFO order."""
        for entry in self.crrb.drain():
            self._write_entry(entry)
        self._active = False
        return self.buffer

    @property
    def active(self) -> bool:
        return self._active


def record_miss_stream(miss_vaddrs, params: JukeboxParams,
                       limit_bytes: Optional[int] = None) -> MetadataBuffer:
    """Run the record logic over a raw L2-miss address stream.

    Standalone helper for the Fig. 8 metadata-size study: no timing, no
    hierarchy -- just CRRB coalescing and entry production.  ``limit_bytes``
    defaults to unlimited so the *required* metadata size can be measured.
    """
    geometry = RegionGeometry(params.region_size)
    buffer = MetadataBuffer(geometry=geometry,
                            limit_bytes=limit_bytes if limit_bytes is not None
                            else 1 << 30)
    recorder = JukeboxRecorder(params, buffer)
    for vaddr in miss_vaddrs:
        recorder.on_l2_inst_miss(vaddr, 0.0)
    recorder.finish()
    return buffer


def record_miss_stream_merging(miss_vaddrs,
                               params: JukeboxParams) -> MetadataBuffer:
    """Ablation variant of :func:`record_miss_stream`: duplicate regions are
    *merged* into their existing entry instead of re-recorded.

    The paper's design keeps evicted CRRB entries immutable (Sec. 3.2) --
    re-fetching them from memory would complicate the hardware -- at the
    cost of duplicate entries in the trace.  This variant quantifies that
    cost: it produces the minimal one-entry-per-region metadata, but note
    that merging weakens the temporal-order property replay relies on.
    """
    geometry = RegionGeometry(params.region_size)
    merged = {}
    order = []
    for vaddr in miss_vaddrs:
        region = geometry.region_of(vaddr)
        bit = 1 << geometry.line_offset(vaddr)
        if region in merged:
            merged[region] |= bit
        else:
            merged[region] = bit
            order.append(region)
    buffer = MetadataBuffer(geometry=geometry, limit_bytes=1 << 30)
    for region in order:
        buffer.append((region, merged[region]))
    return buffer

"""Vectorized columnar simulation backend.

This module is the ``backend="columnar"`` implementation behind
:meth:`repro.sim.core.Simulator.run`: it executes the op program of a
:class:`repro.workloads.trace.ColumnarTrace` instead of interpreting one
event at a time.  The contract (DESIGN.md Sec. 12) is *bit-exact
equivalence*: for any trace and any starting hierarchy state, the
:class:`~repro.sim.result.InvocationResult` and every piece of simulator
state (cache LRU orders, TLB contents, prefetch ledgers, statistics,
branch-predictor training) must be byte-identical to what the scalar
reference produces.  The differential battery in
``tests/sim/test_backend_differential.py`` enforces this across all
Table-2 profiles.

How the speed is won, without changing a single float:

* **Run-length-encoded walks.**  ``FunctionModel`` emits each code segment
  as ``visits`` identical block walks back-to-back.  The columnar IR
  detects the period, and this interpreter *classifies the whole pattern
  once* against current cache state instead of looking up every block of
  every walk.
* **Bulk walk classes.**  A walk whose pattern is (a) fully L1-I-resident,
  (b) fully L2-resident, or (c) resident nowhere is charged with a closed
  form: constant per-event stalls (plus exact I-TLB page-run adjustments)
  and per-level hit/miss counters bumped ``n`` at a time.  Each class
  then runs one loop over ``pattern.unique_last`` that applies, block by
  block, the cache updates ``access_instr`` makes through
  :meth:`repro.sim.cache.SetAssocCache.lookup` and ``insert``: a hit
  moves the line to MRU; a fill pops the LRU victim, drops its residency
  and prefetch flag (counting an unused L2 prefetch) and appends the new
  line.
* **Structural classes.**  Under perfect-I$, a walk wholly inside the
  perfect set is charged like an L1-I-hit walk without any LRU move
  (source ``"perfect"``), and a first touch -- a walk wholly outside the
  set -- runs walk 1 of the L2-resident or miss class, then joins the
  set.  The miss class reports walk 1's misses to a ``fetch_is_noop``
  record hook (Jukebox's recorder) in walk order, and the L2-resident
  class serves prefetch-flagged L2 copies: each flagged block's first
  use clears both flags, credits the prefetch and is reported to the
  hook.
* **Per-walk fallback.**  Anything that does not prove a class's
  preconditions -- fill queues still draining, partial residency,
  pending L1-I prefetch flags, an active ``on_fetch`` hook -- falls back
  to a per-event path for that walk only, reusing the very same
  ``access_instr`` method as the scalar backend.
* **Precomputed accumulator totals.**  ``td.retiring`` and
  ``td.fetch_bandwidth`` receive only *state-independent* adds in the
  scalar interpreter (per-IFETCH ``insts/width`` and per-LOOP spec
  constants), so their exact left folds are computed once per
  (trace, machine) in :class:`repro.workloads.trace.MachineColumns` and
  never threaded through the hot loop; the same holds for the integer
  instruction count.  Only the state-dependent accumulators (``cycle``,
  fetch-latency, bad-speculation, backend-bound, mispredicts) remain
  per-event, and chunks reduce them with ``np.add.accumulate`` -- a
  strict sequential fold, bitwise-identical to the scalar ``+=`` loop,
  unlike pairwise ``ndarray.sum`` -- or a plain Python fold below the
  size where NumPy call overhead dominates.
* **Inline transcriptions.**  The data (``access_data``), branch
  (``execute_site``) and I-TLB paths are transcribed into local loops
  that mutate the *same* underlying structures (LRU lists, prefetch
  ledgers, training sets) with the same operations in the same order,
  accumulating statistics in local integers flushed once per run.  The
  transcriptions are unconditional: those paths never interact with
  record hooks, fill queues or perfect-I$ mode.

Skipped zero-adds, and the zero fill stalls a store adds in the shared
load/store transcription, rely on ``x + 0.0 == x`` bitwise, which holds
for every accumulator here: all start at non-negative values and only
non-negative charges are added, so ``-0.0`` can never arise.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.lint import contracts
from repro.sim.result import InvocationResult
from repro.sim.topdown import TopDownBreakdown
from repro.units import LINE_SHIFT, LINE_SIZE, PAGE_SHIFT
from repro.workloads.trace import BRANCH, LOAD, LOOP, OP_EVENTS, STORE

#: Chunks below this many events are folded with a Python loop; above it,
#: ``np.add.accumulate`` wins despite its fixed call overhead.
_NP_FOLD_MIN = 64

_EMPTY: tuple = ()


def _seq_sum(acc: float, values: np.ndarray) -> float:
    """Left-fold ``values`` into ``acc``; bitwise-identical to the loop
    ``for v in values: acc += v`` (``np.add.accumulate`` is sequential,
    not pairwise)."""
    n = len(values)
    if n == 0:
        return acc
    buf = np.empty(n + 1, dtype=np.float64)
    buf[0] = acc
    buf[1:] = values
    return float(np.add.accumulate(buf)[-1])


def run_columnar(sim, trace):
    """Execute ``trace`` on ``sim`` (a :class:`repro.sim.core.Simulator`)
    through the columnar IR.  See the module docstring for the exactness
    argument; the public entry point is :func:`repro.sim.simulate`."""
    ct = trace.columnar()
    hier = sim.hierarchy
    stats = hier.stats
    stats_before = stats.snapshot()
    td = TopDownBreakdown()
    sources: Dict[str, int] = {}
    mispredicts = 0.0
    bubbles = 0
    cycle = 0.0

    mis_penalty = sim._mispredict_penalty
    btb_penalty = sim._btb_penalty
    branches = sim.branches
    access_instr = hier.access_instr
    loops = ct.loops

    kinds_l = ct.kinds_list
    addrs_l = ct.addrs_list
    args_l = ct.args_list
    args2_l = ct.args2_list
    blocks_l = ct.blocks_list
    pages_l = ct.pages_list
    mc = ct.machine_columns(sim._width, sim._taken_penalty)
    retire_l = mc.retire_list
    fb_l = mc.fb_list
    step0_l = mc.step0_list
    step0_col = mc.step0

    l1i = hier.l1i
    l2 = hier.l2
    llc = hier.llc
    memory = hier.memory
    l1i_fills = hier.l1i_fills
    l2_fills = hier.l2_fills

    hook = hier.record_hook
    # Hooks with live on_fetch disable every bulk class for the whole run;
    # fill queues only until they drain.  A ``fetch_is_noop`` hook may
    # have its on_l2_inst_miss called once per event of a bulk walk, in
    # walk order, with the walk's start cycle (see RecordHook).
    scalar_only = not (hook is None or getattr(hook, "fetch_is_noop", False))
    queues_busy = bool(l1i_fills.inflight or l1i_fills.pending
                       or l2_fills.inflight or l2_fills.pending)
    perfect = hier.perfect_icache
    perfect_blocks = hier._perfect_blocks

    # Bulk stall constants.  Each expression replays the scalar path's
    # float operations on the same operands in the same order, so the
    # constant equals the per-event value bit for bit.  ``contention`` is
    # fixed for the duration of a run (the stressor adjusts it between
    # invocations only).
    contention = memory.contention
    w_itlb = hier._itlb_walk * hier._f_onchip
    c_l2hit = hier._l2_lat * hier._f_onchip
    cw_l2hit = w_itlb + c_l2hit
    _a_llc = (hier._l2_lat + hier._llc_lat * contention) * hier._f_onchip
    _b_dram = (memory.params.latency * contention) * hier._f_dram
    c_miss = _a_llc + _b_dram
    cw_miss = (w_itlb + _a_llc) + _b_dram
    steps_l2hit = mc.stall_steps(c_l2hit)
    steps_miss = mc.stall_steps(c_miss)

    # --- inline data path (access_data transcription) -----------------
    # Valid unconditionally: the data path never touches record hooks,
    # fill queues or perfect-I$ mode.  Locals alias the live structures;
    # statistics accumulate in local ints flushed once at the end (the
    # data-side counters are touched by no other code during a run).
    f_data = hier._f_data
    w_dtlb = hier._dtlb_walk * f_data
    # L2/LLC/memory fill stall per data-access kind.  Stores charge none
    # (write-allocate fills retire through the store buffer).
    fill_stall = {
        LOAD: (hier._l2_lat * f_data,
               (hier._l2_lat + hier._llc_lat * contention) * f_data,
               (hier._l2_lat + hier._llc_lat * contention
                + memory.params.latency * contention) * f_data),
        STORE: (0.0, 0.0, 0.0),
    }
    dtlb = hier.dtlb
    dtlb_sets = dtlb._sets
    dtlb_mask = dtlb._set_mask
    dtlb_assoc = dtlb.assoc
    l1d = hier.l1d
    l1d_sets = l1d._sets
    l1d_mask = l1d._set_mask
    l1d_assoc = l1d.assoc
    l1d_pf = l1d._pf_pending
    l1d_res = l1d._resident
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_assoc = l2.assoc
    l2_pf = l2._pf_pending
    l2_res = l2._resident
    llc_sets = llc._sets
    llc_mask = llc._set_mask
    llc_assoc = llc.assoc
    llc_pf = llc._pf_pending
    llc_res = llc._resident
    next_line = hier.l1d_next_line
    line_shift = LINE_SHIFT
    page_shift = PAGE_SHIFT
    # Page/block of the most recent data access.  When the next access
    # lands on the same page, that page is the MRU entry of its D-TLB set
    # and the scalar path's lookup is a guaranteed no-op hit.  Same-block
    # accesses are a complete no-op: the block is the MRU line of its
    # L1-D set (a next-line prefetch insert cannot displace it -- blocks
    # ``b`` and ``b+1`` always map to different sets), its prefetch flag
    # was already cleared by the previous access, and the D-TLB charge is
    # zero.  Only the hit counters advance.
    prev_page = -1
    prev_block = -1
    n_dtlb_h = n_dtlb_m = 0
    n_l1d_h = n_l1d_m = n_l1d_pfh = 0
    n_l2d_h = n_l2d_m = 0
    n_llc_dh = n_llc_dm = 0
    mem_data_bytes = 0

    # --- inline branch path (execute_site transcription) ---------------
    trained = branches._trained
    btb = branches.btb
    btb_sets = btb._sets
    btb_mask = btb._set_mask
    btb_assoc = btb.assoc
    cf = branches.CORRELATION_MISS_FACTOR
    steady_l = ct.branch_steady(cf)
    bm = branches.mispredicts  # threaded float; written back at the end
    d_cold = d_execs = d_btb_lookups = d_btb_misses = 0

    # --- inline I-TLB (TLB.access transcription) ------------------------
    itlb = hier.itlb
    itlb_sets = itlb._sets
    itlb_mask = itlb._set_mask
    itlb_assoc = itlb.assoc

    # --- L1-I structures for the bulk walk classes ----------------------
    # (the L2 and LLC are aliased by the data path above)
    l1i_sets = l1i._sets
    l1i_mask = l1i._set_mask
    l1i_assoc = l1i.assoc
    l1i_pf = l1i._pf_pending
    l1i_res = l1i._resident

    # State-dependent Top-Down accumulators live in locals (one attribute
    # store per run instead of per event); each receives exactly the
    # scalar backend's sequence of ``+=`` operations.  ``retiring`` and
    # ``fetch_bandwidth`` are state-independent: their finals come from
    # ``mc`` (see module docstring).
    td_fl = 0.0
    td_bs = 0.0
    td_bb = 0.0

    def span_events(lo: int, hi: int) -> None:
        """Interpret a heterogeneous (non-IFETCH) span with the inline
        data/branch transcriptions.

        The loop zips precomputed per-event columns (kind, address, cache
        block, page, arg, steady mispredict rate) instead of indexing six
        lists per event, runs LOADs and STOREs through one transcription
        that differs only in the per-kind fill-stall triple (stores charge
        none), and shortcuts the D-TLB when the page equals the previous
        data access's page -- that page is by construction the MRU entry
        of its set, so the scalar path would neither move nor charge
        anything."""
        nonlocal cycle, mispredicts, bubbles, td_fl, td_bs, td_bb, bm
        nonlocal d_cold, d_execs, d_btb_lookups, d_btb_misses
        nonlocal n_dtlb_h, n_dtlb_m, n_l1d_h, n_l1d_m, n_l1d_pfh
        nonlocal n_l2d_h, n_l2d_m, n_llc_dh, n_llc_dm, mem_data_bytes
        nonlocal prev_page, prev_block
        for kind, addr, block, page, arg, steady in zip(
                kinds_l[lo:hi], addrs_l[lo:hi], blocks_l[lo:hi],
                pages_l[lo:hi], args_l[lo:hi], steady_l[lo:hi]):
            if kind == LOAD or kind == STORE:
                if block == prev_block:
                    n_dtlb_h += 1
                    n_l1d_h += 1
                    continue
                prev_block = block
                if page == prev_page:
                    n_dtlb_h += 1
                    st = 0.0
                else:
                    prev_page = page
                    lru = dtlb_sets[page & dtlb_mask]
                    if page in lru:
                        if lru[-1] != page:
                            lru.remove(page)
                            lru.append(page)
                        n_dtlb_h += 1
                        st = 0.0
                    else:
                        if len(lru) >= dtlb_assoc:
                            lru.pop(0)
                        lru.append(page)
                        n_dtlb_m += 1
                        st = w_dtlb
                if block in l1d_res:
                    l1d_lru = l1d_sets[block & l1d_mask]
                    if l1d_lru[-1] != block:
                        l1d_lru.remove(block)
                        l1d_lru.append(block)
                    n_l1d_h += 1
                    if block in l1d_pf:
                        l1d_pf.discard(block)
                        n_l1d_pfh += 1
                    if st:
                        td_bb += st
                        cycle += st
                    continue
                n_l1d_m += 1
                c_l2, c_llc, c_mem = fill_stall[kind]
                if block in l2_res:
                    lru2 = l2_sets[block & l2_mask]
                    if lru2[-1] != block:
                        lru2.remove(block)
                        lru2.append(block)
                    l2_pf.discard(block)
                    n_l2d_h += 1
                    st += c_l2
                else:
                    n_l2d_m += 1
                    lru3 = llc_sets[block & llc_mask]
                    if block in llc_res:
                        if lru3[-1] != block:
                            lru3.remove(block)
                            lru3.append(block)
                        llc_pf.discard(block)
                        n_llc_dh += 1
                        st += c_llc
                    else:
                        n_llc_dm += 1
                        mem_data_bytes += LINE_SIZE
                        st += c_mem
                        if len(lru3) >= llc_assoc:
                            victim = lru3.pop(0)
                            llc_res.discard(victim)
                            if victim in llc_pf:
                                llc_pf.discard(victim)
                        lru3.append(block)
                        llc_res.add(block)
                    lru2 = l2_sets[block & l2_mask]
                    if len(lru2) >= l2_assoc:
                        victim = lru2.pop(0)
                        l2_res.discard(victim)
                        if victim in l2_pf:
                            l2_pf.discard(victim)
                    lru2.append(block)
                    l2_res.add(block)
                l1d_lru = l1d_sets[block & l1d_mask]
                if len(l1d_lru) >= l1d_assoc:
                    victim = l1d_lru.pop(0)
                    l1d_res.discard(victim)
                    if victim in l1d_pf:
                        l1d_pf.discard(victim)
                l1d_lru.append(block)
                l1d_res.add(block)
                if next_line:
                    nb = block + 1
                    if nb not in l1d_res and (nb in l2_res or nb in llc_res):
                        lru = l1d_sets[nb & l1d_mask]
                        if len(lru) >= l1d_assoc:
                            victim = lru.pop(0)
                            l1d_res.discard(victim)
                            if victim in l1d_pf:
                                l1d_pf.discard(victim)
                        lru.append(nb)
                        l1d_res.add(nb)
                        l1d_pf.add(nb)
                if st:
                    td_bb += st
                    cycle += st
            elif kind == BRANCH:
                d_execs += arg
                if addr in trained:
                    mis = arg * steady
                    if mis:
                        bm += mis
                        mispredicts += mis
                        spec = mis * mis_penalty
                        td_bs += spec
                        cycle += spec
                else:
                    trained.add(addr)
                    d_cold += 1
                    d_btb_lookups += 1
                    key = addr >> 2
                    lru = btb_sets[key & btb_mask]
                    if key in lru:
                        if lru[-1] != key:
                            lru.remove(key)
                            lru.append(key)
                        bub = 0
                    else:
                        d_btb_misses += 1
                        if len(lru) >= btb_assoc:
                            lru.pop(0)
                        lru.append(key)
                        bub = 1
                    mis = 1.0
                    rem = arg - 1
                    if rem > 0:
                        mis += rem * steady
                    bm += mis
                    mispredicts += mis
                    spec = mis * mis_penalty
                    td_bs += spec
                    if bub:
                        bubbles += 1
                        td_fl += btb_penalty
                        cycle += spec + btb_penalty
                    else:
                        cycle += spec
            elif kind == LOOP:
                loop_spec = loops[arg]
                # _run_loop adds to the shared TopDownBreakdown: only its
                # fetch-latency adds are state-dependent, so that field
                # alone round-trips through the object (retiring and
                # fetch-bandwidth are overwritten by the precomputed
                # finals at the end of the run).
                td.fetch_latency = td_fl
                cycle = sim._run_loop(loop_spec, td, sources, cycle)
                td_fl = td.fetch_latency
                mispredicts += 1
                td_bs += mis_penalty
                cycle += mis_penalty
            else:  # pragma: no cover - trace construction prevents this
                raise ValueError(f"unknown trace event kind {kind}")

    def walk_scalar(lo: int, hi: int) -> None:
        """Per-event fallback for IFETCH walks whose bulk preconditions
        do not hold -- the same ``access_instr`` calls as the scalar
        backend."""
        nonlocal cycle, td_fl
        for i in range(lo, hi):
            stall, level = access_instr(addrs_l[i], cycle)
            sources[level] = sources.get(level, 0) + 1
            if stall:
                td_fl += stall
                cycle += (stall + retire_l[i]) + fb_l[i]
            else:
                cycle += step0_l[i]

    def walk_itlb(lo: int, hi: int, period: int, pattern) -> List[int]:
        """Exact I-TLB accounting for walks ``[lo, hi)``: each page run
        costs one live TLB access plus ``runlen - 1`` guaranteed hits
        (the page is MRU after its first access).  Returns the event
        indices whose access walked the page table."""
        miss_idx: List[int] = []
        hits = 0
        page_runs = pattern.page_runs
        for base in range(lo, hi, period):
            for off, page, runlen in page_runs:
                lru = itlb_sets[page & itlb_mask]
                if page in lru:
                    if lru[-1] != page:
                        lru.remove(page)
                        lru.append(page)
                    hits += runlen
                else:
                    if len(lru) >= itlb_assoc:
                        lru.pop(0)
                    lru.append(page)
                    miss_idx.append(base + off)
                    hits += runlen - 1
        stats.itlb.inst_hits += hits
        stats.itlb.inst_misses += len(miss_idx)
        return miss_idx

    def charge_hits(lo: int, hi: int, miss_idx: List[int]) -> None:
        """Charge all-L1-hit fetches: zero stall except an I-TLB walk at
        each ``miss_idx`` position.  Zero-stall events add nothing to
        fetch latency (``x + 0.0 == x``) and step the cycle by the
        precomputed ``step0`` column."""
        nonlocal cycle, td_fl
        if not miss_idx:
            if hi - lo >= _NP_FOLD_MIN:
                cycle = _seq_sum(cycle, step0_col[lo:hi])
            else:
                c = cycle
                for v in step0_l[lo:hi]:
                    c += v
                cycle = c
            return
        c = cycle
        fl = td_fl
        it = iter(miss_idx)
        nxt = next(it)
        for k in range(lo, hi):
            if k == nxt:
                fl += w_itlb
                c += (w_itlb + retire_l[k]) + fb_l[k]
                nxt = next(it, -1)
            else:
                c += step0_l[k]
        cycle = c
        td_fl = fl

    def charge_const(lo: int, hi: int, c0: float, cw: float, steps: list,
                     miss_idx: List[int]) -> None:
        """Charge fetches with a constant per-event stall ``c0`` (``cw``
        at I-TLB-walk positions).  ``steps`` is the precomputed
        ``(c0 + retire) + fb`` column for this stall constant."""
        nonlocal cycle, td_fl
        c = cycle
        fl = td_fl
        if not miss_idx:
            for k in range(lo, hi):
                fl += c0
                c += steps[k]
        else:
            it = iter(miss_idx)
            nxt = next(it, -1)
            for k in range(lo, hi):
                if k == nxt:
                    fl += cw
                    c += (cw + retire_l[k]) + fb_l[k]
                    nxt = next(it, -1)
                else:
                    fl += c0
                    c += steps[k]
        cycle = c
        td_fl = fl

    # Repeat-walk collapse.  Walks 2..k of a group replay walk 1's exact
    # access sequence, and LRU moves are idempotent under replay: after
    # walk 1 every touched line sits at the MRU end of its set in
    # last-access order, and re-touching them in the same order leaves
    # that order unchanged.  So once walk 1 proves (or establishes)
    # full L1-I residency -- and the I-TLB provably kept every pattern
    # page (walk 1 had no TLB miss, or ``pattern.itlb_fits`` bounds
    # pages-per-set by the associativity) -- the remaining walks are
    # guaranteed all-hits with *zero* state change: they reduce to one
    # cycle fold plus counter bumps.  Walk 1's fills never set a prefetch
    # flag, so residency is the only L1-I fact left to check.  Perfect-I$
    # hits touch no cache at all, so the I-TLB condition alone folds them.

    def fold_repeats(lo: int, hi: int, source: str) -> None:
        """Charge all-hit repeat walks ``[lo, hi)``: pure ``step0`` fold,
        no TLB/cache state to touch (see the idempotence note above)."""
        n = hi - lo
        stats.itlb.inst_hits += n
        charge_hits(lo, hi, _EMPTY)
        stats.l1i.inst_hits += n
        sources[source] = sources.get(source, 0) + n

    def after_fill(first_hi: int, hi: int, miss_idx: List[int],
                   pattern) -> int:
        """Finish the repeat walks ``[first_hi, hi)`` after a walk 1 that
        filled the L1-I.  Returns the first unconsumed event index.

        Under perfect-I$, walk 1 was a first touch: its blocks join the
        set and the repeats are left to the perfect class.  Otherwise the
        repeats fold when every pattern block is still resident (a set
        holding more pattern blocks than ways evicts some of them)."""
        if perfect:
            perfect_blocks.update(pattern.unique_last)
            return first_hi
        if (first_hi < hi and l1i_res.issuperset(pattern.unique_last)
                and (not miss_idx
                     or pattern.itlb_fits(itlb_mask, itlb_assoc))):
            fold_repeats(first_hi, hi, "l1")
            return hi
        return first_hi

    def bulk_hits(lo: int, hi: int, period: int, pattern,
                  source: str) -> None:
        """Every remaining walk is served by L1-I or perfect-I$ hits:
        residency cannot change under them, so all of ``[lo, hi)`` is
        charged at once.  The caller applies any LRU moves."""
        first_hi = lo + period
        miss_idx = walk_itlb(lo, first_hi, period, pattern)
        charge_hits(lo, first_hi, miss_idx)
        stats.l1i.inst_hits += period
        sources[source] = sources.get(source, 0) + period
        if first_hi < hi:
            if not miss_idx or pattern.itlb_fits(itlb_mask, itlb_assoc):
                fold_repeats(first_hi, hi, source)
            else:
                # Pathological page aliasing: account every walk live.
                miss_idx = walk_itlb(first_hi, hi, period, pattern)
                charge_hits(first_hi, hi, miss_idx)
                stats.l1i.inst_hits += hi - first_hi
                sources[source] = sources.get(source, 0) + (hi - first_hi)

    def bulk_l1_hits(lo: int, hi: int, period: int, pattern) -> None:
        """Every remaining walk hits the L1-I; each block ends at MRU."""
        bulk_hits(lo, hi, period, pattern, "l1")
        for blk in pattern.unique_last:
            lru = l1i_sets[blk & l1i_mask]
            if lru[-1] != blk:
                lru.remove(blk)
                lru.append(blk)

    def bulk_l2_hits(lo: int, hi: int, period: int, pattern) -> int:
        """Walk 1 of ``[lo, hi)`` served entirely by the L2 (distinct
        blocks, none in the L1-I): each block moves to MRU in the L2 and
        fills the L1-I.  A block whose L2 copy carries a prefetch flag is
        that prefetch's first use, as in ``access_instr``: both flags
        clear, the line is credited useful and the record hook sees the
        event.  Returns the first unconsumed event index."""
        walk_start = cycle
        first_hi = lo + period
        miss_idx = walk_itlb(lo, first_hi, period, pattern)
        charge_const(lo, first_hi, c_l2hit, cw_l2hit, steps_l2hit, miss_idx)
        stats.l1i.inst_misses += period
        stats.l2.inst_hits += period
        sources["l2"] = sources.get("l2", 0) + period
        # All-distinct walk: ``blocks`` is ``unique_last``, in walk order.
        for addr, blk in zip(pattern.addrs, pattern.blocks):
            lru = l2_sets[blk & l2_mask]
            if lru[-1] != blk:
                lru.remove(blk)
                lru.append(blk)
            if blk in l2_pf:
                l2_pf.discard(blk)
                stats.l2.inst_prefetch_hits += 1
                memory.credit_useful_prefetch()
                llc_pf.discard(blk)
                if hook is not None:
                    hook.on_l2_inst_miss(addr, walk_start)
            lru = l1i_sets[blk & l1i_mask]
            if len(lru) >= l1i_assoc:
                victim = lru.pop(0)
                l1i_res.discard(victim)
                if victim in l1i_pf:
                    l1i_pf.discard(victim)
            lru.append(blk)
            l1i_res.add(blk)
        return after_fill(first_hi, hi, miss_idx, pattern)

    def bulk_misses(lo: int, hi: int, period: int, pattern) -> int:
        """Walk 1 of ``[lo, hi)`` with distinct blocks resident nowhere
        on chip: every fetch is a compulsory miss to DRAM that fills the
        LLC, the L2 and the L1-I, and that the record hook sees in walk
        order.  Returns the first unconsumed event index."""
        walk_start = cycle
        first_hi = lo + period
        miss_idx = walk_itlb(lo, first_hi, period, pattern)
        charge_const(lo, first_hi, c_miss, cw_miss, steps_miss, miss_idx)
        stats.l1i.inst_misses += period
        stats.l2.inst_misses += period
        stats.llc.inst_misses += period
        memory.traffic.demand_inst += period * LINE_SIZE
        sources["memory"] = sources.get("memory", 0) + period
        if hook is not None:
            for addr in pattern.addrs:
                hook.on_l2_inst_miss(addr, walk_start)
        unused = 0
        for blk in pattern.unique_last:
            lru = llc_sets[blk & llc_mask]
            if len(lru) >= llc_assoc:
                victim = lru.pop(0)
                llc_res.discard(victim)
                if victim in llc_pf:
                    llc_pf.discard(victim)
            lru.append(blk)
            llc_res.add(blk)
            lru = l2_sets[blk & l2_mask]
            if len(lru) >= l2_assoc:
                victim = lru.pop(0)
                l2_res.discard(victim)
                if victim in l2_pf:
                    l2_pf.discard(victim)
                    unused += 1
            lru.append(blk)
            l2_res.add(blk)
            lru = l1i_sets[blk & l1i_mask]
            if len(lru) >= l1i_assoc:
                victim = lru.pop(0)
                l1i_res.discard(victim)
                if victim in l1i_pf:
                    l1i_pf.discard(victim)
            lru.append(blk)
            l1i_res.add(blk)
        if unused:
            stats.l2.prefetched_unused += unused
        return after_fill(first_hi, hi, miss_idx, pattern)

    for op in ct.ops:
        if op[0] == OP_EVENTS:
            span_events(op[1], op[2])
            continue
        _tag, lo, hi, period, pattern = op
        i = lo
        while i < hi:
            if queues_busy:
                # Fill queues only drain as simulated time advances (in
                # access_instr); re-check per walk until they empty.
                queues_busy = bool(l1i_fills.inflight or l1i_fills.pending
                                   or l2_fills.inflight or l2_fills.pending)
            if scalar_only or queues_busy:
                walk_scalar(i, i + period)
                i += period
                continue
            unique = pattern.unique_last
            if perfect and not perfect_blocks.isdisjoint(unique):
                if perfect_blocks.issuperset(unique):
                    bulk_hits(i, hi, period, pattern, "perfect")
                    i = hi
                    continue
            elif l1i.contains_all(unique):
                # Under perfect-I$ an L1-I hit joins the set, so its
                # repeats would be perfect hits: per-event path.
                if not perfect and l1i.pf_disjoint(pattern.block_set):
                    bulk_l1_hits(i, hi, period, pattern)
                    i = hi
                    continue
            elif pattern.all_distinct and l1i.contains_none(unique):
                if l2.contains_all(unique):
                    i = bulk_l2_hits(i, hi, period, pattern)
                    continue
                if l2.contains_none(unique) and llc.contains_none(unique):
                    i = bulk_misses(i, hi, period, pattern)
                    continue
            # Partial residency (in the perfect set, the L1-I or the L2)
            # or pending L1-I prefetch flags: this walk takes the scalar
            # reference path.
            walk_scalar(i, i + period)
            i += period

    # Flush the local accumulators back into the live structures.  The
    # integer deltas are added (no other code touched the data-side or
    # branch counters during the run); the float accumulators carry the
    # exact scalar add sequences.
    td.retiring = mc.ret_final
    td.fetch_bandwidth = mc.fb_final
    td.fetch_latency = td_fl
    td.bad_speculation = td_bs
    td.backend_bound = td_bb
    branches.mispredicts = bm
    branches.cold_mispredicts += d_cold
    branches.executions += d_execs
    btb.lookups += d_btb_lookups
    btb.misses += d_btb_misses
    stats.dtlb.data_hits += n_dtlb_h
    stats.dtlb.data_misses += n_dtlb_m
    stats.l1d.data_hits += n_l1d_h
    stats.l1d.data_misses += n_l1d_m
    stats.l1d.data_prefetch_hits += n_l1d_pfh
    stats.l2.data_hits += n_l2d_h
    stats.l2.data_misses += n_l2d_m
    stats.llc.data_hits += n_llc_dh
    stats.llc.data_misses += n_llc_dm
    memory.traffic.demand_data += mem_data_bytes

    result = InvocationResult(
        instructions=ct.instr_total,
        topdown=td,
        stats=stats.delta(stats_before),
        fetch_sources=sources,
        mispredicts=mispredicts,
        btb_bubbles=bubbles,
    )
    contracts.check_invocation(result)
    return result

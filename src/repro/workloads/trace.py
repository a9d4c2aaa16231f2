"""Invocation trace representation.

An :class:`InvocationTrace` is the unit of work the simulator executes: the
instruction-block / data-block / branch activity of *one invocation* of one
serverless function (what gem5 would observe between gRPC request arrival
and response, Sec. 4.2).

Traces are compact: consecutive activity is aggregated so that a ~1M
instruction invocation is represented by a few tens of thousands of events.
Event kinds:

``IFETCH``
    A visit to one instruction cache block executing ``arg`` instructions
    with ``arg2`` taken branches.  Cache behaviour is simulated exactly.
``LOAD`` / ``STORE``
    ``arg`` consecutive accesses to one data block (only the first can miss).
``BRANCH``
    An aggregate of ``arg`` dynamic executions of the *conditional branch
    site* at ``addr`` whose taken probability is ``arg2``/255.  Direction
    mispredicts are modeled analytically per site (see
    :class:`repro.sim.core.Simulator`).
``LOOP``
    ``arg`` = loop id into :attr:`InvocationTrace.loops`.  The loop body is
    simulated through the hierarchy once; remaining iterations are charged
    analytically (a tight loop resident in the L1-I cannot miss again).

This aggregation is a *documented abstraction* (DESIGN.md Sec. 3): it keeps
the Python simulator tractable while preserving the miss streams that drive
the paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.units import LINE_SHIFT, LINE_SIZE, PAGE_SHIFT, block_addr

IFETCH = 0
LOAD = 1
STORE = 2
BRANCH = 3
LOOP = 4


def _freeze(*arrays: np.ndarray) -> None:
    """Mark ``arrays`` read-only: traces and their IR may be shared by
    every simulation cell of a process, so a write would leak across
    cells."""
    for array in arrays:
        array.flags.writeable = False


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over ``zip(starts, lengths)``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


@dataclass(frozen=True)
class LoopSpec:
    """A tight loop: ``iterations`` passes over ``blocks`` (byte addresses).

    ``insts_per_iteration`` counts all instructions retired per pass;
    ``branches_per_iteration`` is the number of (well-predicted) taken
    branches per pass, used for fetch-bandwidth accounting.  The loop-back
    branch itself mispredicts once, on exit.
    """

    blocks: Tuple[int, ...]
    iterations: int
    insts_per_iteration: int
    branches_per_iteration: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise TraceError(f"loop must iterate at least once: {self.iterations}")
        if not self.blocks:
            raise TraceError("loop body must contain at least one block")
        if self.insts_per_iteration < 1:
            raise TraceError("loop must retire at least one instruction per pass")

    @property
    def body_bytes(self) -> int:
        return len(self.blocks) * LINE_SIZE

    @property
    def total_insts(self) -> int:
        return self.iterations * self.insts_per_iteration


@dataclass(eq=False)  # array fields make element-wise __eq__ a footgun
class InvocationTrace:
    """One invocation's activity as parallel event arrays plus a loop table."""

    kinds: np.ndarray
    addrs: np.ndarray
    args: np.ndarray
    args2: np.ndarray
    loops: List[LoopSpec] = field(default_factory=list)
    #: Where the generator laid out its block walks (see :class:`WalkPlan`);
    #: None for traces built event by event, whose IR finds the walks.
    walk_plan: "Optional[WalkPlan]" = field(default=None, repr=False)
    #: Lazily built columnar IR (see :meth:`columnar`); not part of the
    #: constructor so existing call sites are unaffected.
    _columnar: "Optional[ColumnarTrace]" = field(default=None, init=False,
                                                 repr=False)

    def __post_init__(self) -> None:
        n = len(self.kinds)
        if not (len(self.addrs) == len(self.args) == len(self.args2) == n):
            raise TraceError("trace arrays must have equal length")
        if n and (self.kinds.min() < IFETCH or self.kinds.max() > LOOP):
            raise TraceError(
                f"trace event kinds must lie in [{IFETCH}, {LOOP}]")
        loop_ids = self.args[self.kinds == LOOP]
        if len(loop_ids) and (loop_ids.min() < 0
                              or loop_ids.max() >= len(self.loops)):
            raise TraceError(f"a LOOP event names no entry of the "
                             f"{len(self.loops)}-loop table")
        _freeze(self.kinds, self.addrs, self.args, self.args2)

    def columnar(self) -> "ColumnarTrace":
        """The columnar IR of this trace, built once and cached on the
        trace object.  The trace may itself be shared -- through the
        per-process trace memo of
        :func:`repro.experiments.common.make_traces` -- and so may its IR;
        both are read-only pure functions of the generation inputs, so
        sweeps stay deterministic and workers stay independent."""
        if self._columnar is None:
            self._columnar = ColumnarTrace.from_trace(self)
        return self._columnar

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def total_instructions(self) -> int:
        """Instructions retired by this invocation (including loop bodies)."""
        insts = int(self.args[self.kinds == IFETCH].sum())
        for idx in np.nonzero(self.kinds == LOOP)[0]:
            insts += self.loops[int(self.args[idx])].total_insts
        return insts

    def instruction_blocks(self) -> "set[int]":
        """Unique instruction cache block addresses touched (the footprint
        measured in Fig. 6a)."""
        blocks = {int(a) for a in self.addrs[self.kinds == IFETCH]}
        for idx in np.nonzero(self.kinds == LOOP)[0]:
            blocks.update(self.loops[int(self.args[idx])].blocks)
        return blocks


#: Op tags of the columnar program (first element of each ``ops`` entry).
OP_WALKS = 0   #: ``(OP_WALKS, start, end, period, WalkPattern)``
OP_EVENTS = 1  #: ``(OP_EVENTS, start, end)`` -- heterogeneous scalar span


class WalkPattern:
    """One period of a repeated instruction-block walk.

    ``FunctionModel.invocation_trace`` walks a visited segment's blocks
    ``visits`` times back-to-back, so a maximal IFETCH run decomposes into
    ``n`` repetitions of a short pattern.  The pattern carries exactly the
    machine-independent derived data the batch interpreter needs to
    classify and bulk-execute a walk: block numbers, the deduplicated
    last-access order (the LRU order a full pass leaves behind), and the
    page-level run-length encoding driving I-TLB accounting.  It holds
    only tuples and a frozenset, plus the :meth:`itlb_fits` memo, so one
    pattern may serve every walk of a segment in every trace.
    """

    __slots__ = ("addrs", "blocks", "block_set", "unique_last",
                 "all_distinct", "page_runs", "_tlb_fits")

    def __init__(self, addrs: Sequence[int]) -> None:
        #: Memoized :meth:`itlb_fits` verdicts keyed by TLB geometry.
        self._tlb_fits: Dict[Tuple[int, int], bool] = {}
        self.addrs: Tuple[int, ...] = tuple(int(a) for a in addrs)
        self.blocks: Tuple[int, ...] = tuple(a >> LINE_SHIFT for a in self.addrs)
        self.block_set = frozenset(self.blocks)
        # Deduplicate keeping the *last* occurrence: after one pass, the
        # LRU order of the touched blocks is their last-access order.
        seen: Dict[int, None] = {}
        for b in self.blocks:
            if b in seen:
                del seen[b]
            seen[b] = None
        self.unique_last: Tuple[int, ...] = tuple(seen)
        self.all_distinct = len(self.block_set) == len(self.blocks)
        runs: List[Tuple[int, int, int]] = []
        for off, addr in enumerate(self.addrs):
            page = addr >> PAGE_SHIFT
            if runs and runs[-1][1] == page:
                start, _, length = runs[-1]
                runs[-1] = (start, page, length + 1)
            else:
                runs.append((off, page, 1))
        self.page_runs: Tuple[Tuple[int, int, int], ...] = tuple(runs)

    def itlb_fits(self, set_mask: int, assoc: int) -> bool:
        """True when no TLB set holds more than ``assoc`` of this
        pattern's distinct pages.

        Under that bound, one full walk leaves every pattern page
        resident: a page touched earlier in the walk sits at the MRU end
        of its set, so later insertions within the same walk can only
        evict *other* pages.  Repeat walks of the pattern are then
        guaranteed all-hits with an unchanged final LRU order (the same
        access sequence reproduces the same MRU ordering), which is what
        lets the columnar backend fold them without touching the TLB.
        """
        key = (set_mask, assoc)
        ok = self._tlb_fits.get(key)
        if ok is None:
            per_set: Dict[int, int] = {}
            for page in {p for _off, p, _len in self.page_runs}:
                idx = page & set_mask
                per_set[idx] = per_set.get(idx, 0) + 1
            ok = not per_set or max(per_set.values()) <= assoc
            self._tlb_fits[key] = ok
        return ok

    def __len__(self) -> int:
        return len(self.blocks)


class SegmentPatterns:
    """The :class:`WalkPattern` of each code segment, built on first use.

    ``addrs`` holds every segment's block addresses, one segment after
    another: segment ``s`` is ``addrs[starts[s]:starts[s] + lengths[s]]``.
    A ``FunctionModel`` owns one table, and every trace it generates
    shares its patterns read-only through the trace's :class:`WalkPlan`.
    """

    __slots__ = ("addrs", "starts", "lengths", "_patterns")

    def __init__(self, addrs: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> None:
        self.addrs = addrs
        self.starts = starts
        self.lengths = lengths
        self._patterns: List[Optional[WalkPattern]] = [None] * len(starts)

    def __getitem__(self, segment: int) -> WalkPattern:
        pattern = self._patterns[segment]
        if pattern is None:
            start = int(self.starts[segment])
            pattern = WalkPattern(
                self.addrs[start:start + int(self.lengths[segment])].tolist())
            self._patterns[segment] = pattern
        return pattern


class WalkPlan(NamedTuple):
    """The block walks of a generated trace, one entry per segment visit:
    from event ``starts[k]``, segment ``segments[k]`` of ``patterns`` is
    walked ``visits[k]`` times back-to-back.

    :meth:`ColumnarTrace.from_trace` checks the plan against the trace's
    events and builds the op program from it instead of scanning for
    each walk's period."""

    starts: np.ndarray
    visits: np.ndarray
    segments: np.ndarray
    patterns: SegmentPatterns


class MachineColumns:
    """Per-event float columns and precomputed totals for one core geometry.

    ``retire[i] = args[i] / width`` and ``fb[i] = args2[i] * taken_penalty``
    are elementwise copies of the scalar interpreter's per-event operations;
    ``step0 = retire + fb`` is the cycle step of a stall-free fetch.  The
    ``*_list`` views are plain-``float`` copies for the interpreter's
    small-chunk Python loops (indexing a list avoids per-element
    ``np.float64`` boxing).

    ``ret_final`` / ``fb_final`` are the invocation totals of the
    ``retiring`` and ``fetch_bandwidth`` Top-Down accumulators.  Both
    receive *state-independent* add sequences in the scalar interpreter --
    every IFETCH adds ``args[i]/width`` (resp. ``args2[i]*taken_penalty``)
    and every LOOP adds fixed per-spec values, none of which depend on
    cache or predictor state -- so the exact left fold is computed here
    once per (trace, machine) with ``np.add.accumulate`` (a strict
    sequential fold, bitwise-identical to the scalar ``+=`` loop).
    """

    __slots__ = ("retire", "fb", "step0", "retire_list", "fb_list",
                 "step0_list", "ret_final", "fb_final", "_stall_steps")

    def __init__(self, ct: "ColumnarTrace", width: int,
                 taken_penalty: float) -> None:
        self.retire = ct.args / width
        self.fb = ct.args2 * taken_penalty
        self.step0 = self.retire + self.fb
        _freeze(self.retire, self.fb, self.step0)
        self.retire_list = self.retire.tolist()
        self.fb_list = self.fb.tolist()
        self.step0_list = self.step0.tolist()
        self._stall_steps: Dict[float, list] = {}
        self.ret_final, self.fb_final = self._fold_totals(
            ct, width, taken_penalty)

    def stall_steps(self, stall: float) -> list:
        """Per-event cycle steps under a constant stall: element ``k`` is
        ``(stall + retire[k]) + fb[k]`` -- the scalar interpreter's exact
        operation order, computed elementwise (each NumPy op is correctly
        rounded, so every element matches the scalar float bit for bit).
        Cached per stall constant; constants depend on machine factors and
        the per-run memory contention, giving a handful of keys."""
        steps = self._stall_steps.get(stall)
        if steps is None:
            if len(self._stall_steps) >= 8:  # bound growth under
                self._stall_steps.clear()    # per-cell contention sweeps
            steps = ((stall + self.retire) + self.fb).tolist()
            self._stall_steps[stall] = steps
        return steps

    def _fold_totals(self, ct: "ColumnarTrace", width: int,
                     taken_penalty: float) -> Tuple[float, float]:
        if_idx = ct.ifetch_idx
        retire_if = self.retire[if_idx]
        fb_if = self.fb[if_idx]
        # The leading 0.0 seeds the fold at the accumulator's start value.
        zero = np.zeros(1)
        if len(ct.loop_idx) == 0:
            pieces_r = [zero, retire_if]
            pieces_f = [zero, fb_if]
        else:
            # Splice each loop's contributions into the IFETCH sequence at
            # its event position, replaying _run_loop's adds exactly.
            pieces_r = [zero]
            pieces_f = [zero]
            args = ct.args
            prev = 0
            for li in ct.loop_idx.tolist():
                a = np.searchsorted(if_idx, prev)
                b = np.searchsorted(if_idx, li)
                pieces_r.append(retire_if[a:b])
                pieces_f.append(fb_if[a:b])
                spec = ct.loops[int(args[li])]
                n_blocks = len(spec.blocks)
                insts_per_block = max(1.0, spec.insts_per_iteration / n_blocks)
                pieces_r.append(np.full(n_blocks, insts_per_block / width))
                remaining = spec.iterations - 1
                if remaining > 0:
                    pieces_r.append(np.array(
                        [remaining * spec.insts_per_iteration / width]))
                    pieces_f.append(np.array(
                        [remaining * spec.branches_per_iteration
                         * taken_penalty]))
                prev = li
            a = np.searchsorted(if_idx, prev)
            pieces_r.append(retire_if[a:])
            pieces_f.append(fb_if[a:])
        ret_final = float(np.add.accumulate(np.concatenate(pieces_r))[-1])
        fb_final = float(np.add.accumulate(np.concatenate(pieces_f))[-1])
        return ret_final, fb_final


#: Recurrences of a run's leading address that :func:`_find_period` tries.
_PERIOD_CANDIDATES = 4


def _find_period(addrs: np.ndarray) -> int:
    """Smallest period ``p`` such that the run is whole repetitions of its
    first ``p`` elements, or ``len(addrs)`` when it is not periodic.

    Candidates are the first few recurrences of the leading address; each
    is verified exactly with a shifted-equality check, so a wrong guess can
    never be returned.
    """
    n = len(addrs)
    candidates = np.nonzero(addrs == addrs[0])[0]
    for p in candidates[1:1 + _PERIOD_CANDIDATES]:
        p = int(p)
        if n % p == 0 and np.array_equal(addrs[p:], addrs[:-p]):
            return p
    return n


def _scanned_ops(addrs: np.ndarray, is_fetch: np.ndarray) -> List[tuple]:
    """The op program of a trace without a walk plan: each maximal IFETCH
    run gets its period from :func:`_find_period` and its own pattern."""
    n = len(addrs)
    ops: List[tuple] = []
    flips = np.nonzero(np.diff(is_fetch.astype(np.int8)))[0] + 1
    bounds = [0, *flips.tolist(), n]
    for idx in range(len(bounds) - 1):
        start, end = bounds[idx], bounds[idx + 1]
        if start == end:
            continue
        if is_fetch[start]:
            run = addrs[start:end]
            period = _find_period(run)
            pattern = WalkPattern(run[:period].tolist())
            ops.append((OP_WALKS, start, end, period, pattern))
        else:
            ops.append((OP_EVENTS, start, end))
    return ops


def _planned_ops(plan: WalkPlan, addrs: np.ndarray,
                 is_fetch: np.ndarray) -> List[tuple]:
    """The op program of a trace with a walk plan.  The plan must name
    exactly the trace's maximal IFETCH runs, each ``visits`` periods
    long, and their addresses must be the named segments' addresses
    repeated; otherwise this raises :class:`TraceError`."""
    table = plan.patterns
    periods = table.lengths[plan.segments]
    ends = plan.starts + plan.visits * periods
    edges = np.diff(is_fetch.astype(np.int8), prepend=np.int8(0),
                    append=np.int8(0))
    if not (np.array_equal(np.flatnonzero(edges > 0), plan.starts)
            and np.array_equal(np.flatnonzero(edges < 0), ends)):
        raise TraceError("walk plan does not match the trace's IFETCH runs")
    walked = _ranges(np.repeat(table.starts[plan.segments], plan.visits),
                     np.repeat(periods, plan.visits))
    if not np.array_equal(addrs[is_fetch], table.addrs[walked]):
        raise TraceError("walk plan addresses differ from the trace's")
    ops: List[tuple] = []
    prev = 0
    for start, end, period, segment in zip(
            plan.starts.tolist(), ends.tolist(), periods.tolist(),
            plan.segments.tolist()):
        if prev < start:
            ops.append((OP_EVENTS, prev, start))
        ops.append((OP_WALKS, start, end, period, table[segment]))
        prev = end
    if prev < len(addrs):
        ops.append((OP_EVENTS, prev, len(addrs)))
    return ops


@dataclass(eq=False)
class ColumnarTrace:
    """Columnar IR of one :class:`InvocationTrace`.

    Per-event columns (event kind / address / block / page / arg /
    arg2) plus a decoded *op program* that run-length-encodes repeated block
    walks: the batch interpreter in :mod:`repro.sim.batch` consumes ops,
    not events, and charges whole walks at a time.  A generated trace's
    ops come from its checked :class:`WalkPlan` and share its segments'
    patterns; a trace without a plan is scanned for its walks.
    Everything here is a pure function of the trace, and every array is
    read-only -- machine-dependent float columns are cached per ``(issue
    width, taken-branch penalty)`` on first use.

    Built once per trace via :meth:`InvocationTrace.columnar`.
    """

    #: The originating trace's argument arrays and loops table (shared).
    args: np.ndarray
    args2: np.ndarray
    #: Decoded op program (``OP_WALKS`` / ``OP_EVENTS`` tuples).
    ops: List[tuple]
    loops: List[LoopSpec]
    #: Plain-int columns for the scalar fallback paths (indexing a Python
    #: list returns ``int``, not ``np.int64``): event kind, address, arg,
    #: and the cache-block and page number (valid for memory events).
    kinds_list: List[int]
    addrs_list: List[int]
    args_list: List[int]
    blocks_list: List[int]
    pages_list: List[int]
    #: Event indices of IFETCH / LOOP events (machine-total splicing).
    ifetch_idx: np.ndarray
    loop_idx: np.ndarray
    #: Instructions retired by the invocation (= the exact integer total
    #: the scalar interpreter accumulates event by event).
    instr_total: int
    _machine_columns: Dict[Tuple[float, float], MachineColumns] = field(
        default_factory=dict, repr=False)
    _branch_steady: Dict[float, list] = field(default_factory=dict,
                                              repr=False)

    def branch_steady(self, correlation_factor: float) -> list:
        """Per-event steady-state mispredict rate: element ``i`` is
        ``2.0 * p * (1.0 - p) * correlation_factor`` with
        ``p = args2[i] / 255.0`` -- the branch model's exact operation
        order, computed elementwise (each NumPy op is correctly rounded,
        so every element matches the scalar float bit for bit).  Only
        meaningful at BRANCH positions; cached per correlation factor."""
        col = self._branch_steady.get(correlation_factor)
        if col is None:
            p = self.args2 / 255.0
            col = (2.0 * p * (1.0 - p) * correlation_factor).tolist()
            self._branch_steady[correlation_factor] = col
        return col

    @classmethod
    def from_trace(cls, trace: "InvocationTrace") -> "ColumnarTrace":
        kinds = trace.kinds
        addrs = trace.addrs
        is_fetch = kinds == IFETCH
        if trace.walk_plan is None:
            ops = _scanned_ops(addrs, is_fetch)
        else:
            ops = _planned_ops(trace.walk_plan, addrs, is_fetch)
        ifetch_idx = np.nonzero(is_fetch)[0]
        loop_idx = np.nonzero(kinds == LOOP)[0]
        _freeze(ifetch_idx, loop_idx)
        return cls(
            args=trace.args, args2=trace.args2, ops=ops, loops=trace.loops,
            kinds_list=kinds.tolist(), addrs_list=addrs.tolist(),
            args_list=trace.args.tolist(),
            blocks_list=(addrs >> LINE_SHIFT).tolist(),
            pages_list=(addrs >> PAGE_SHIFT).tolist(),
            ifetch_idx=ifetch_idx, loop_idx=loop_idx,
            instr_total=trace.total_instructions,
        )

    def machine_columns(self, width: int,
                        taken_penalty: float) -> MachineColumns:
        """The :class:`MachineColumns` for one core geometry, cached."""
        key = (width, taken_penalty)
        cols = self._machine_columns.get(key)
        if cols is None:
            cols = MachineColumns(self, width, taken_penalty)
            self._machine_columns[key] = cols
        return cols


class TraceBuilder:
    """Incrementally build an :class:`InvocationTrace`."""

    def __init__(self) -> None:
        self._kinds: List[int] = []
        self._addrs: List[int] = []
        self._args: List[int] = []
        self._args2: List[int] = []
        self._loops: List[LoopSpec] = []

    def fetch(self, addr: int, insts: int, taken_branches: int = 0) -> None:
        """Visit one instruction block, retiring ``insts`` instructions."""
        if insts < 1:
            raise TraceError(f"IFETCH must retire at least one instruction ({insts})")
        self._kinds.append(IFETCH)
        self._addrs.append(block_addr(addr))
        self._args.append(insts)
        self._args2.append(taken_branches)

    def load(self, addr: int, count: int = 1) -> None:
        """``count`` consecutive loads to one data block."""
        self._append_data(LOAD, addr, count)

    def store(self, addr: int, count: int = 1) -> None:
        """``count`` consecutive stores to one data block."""
        self._append_data(STORE, addr, count)

    def _append_data(self, kind: int, addr: int, count: int) -> None:
        if count < 1:
            raise TraceError(f"data event needs a positive count ({count})")
        self._kinds.append(kind)
        self._addrs.append(block_addr(addr))
        self._args.append(count)
        self._args2.append(0)

    def branch_site(self, pc: int, executions: int, taken_prob: float) -> None:
        """Aggregate ``executions`` dynamic branches at conditional site ``pc``."""
        if executions < 1:
            raise TraceError("branch site needs a positive execution count")
        if not 0.0 <= taken_prob <= 1.0:
            raise TraceError(f"taken probability out of range: {taken_prob}")
        self._kinds.append(BRANCH)
        self._addrs.append(pc)
        self._args.append(executions)
        self._args2.append(int(round(taken_prob * 255)))

    def loop(self, spec: LoopSpec) -> None:
        """Append a tight loop."""
        self._kinds.append(LOOP)
        self._addrs.append(spec.blocks[0])
        self._args.append(len(self._loops))
        self._args2.append(0)
        self._loops.append(spec)

    def build(self) -> InvocationTrace:
        """Freeze the builder into an immutable trace."""
        return InvocationTrace(
            kinds=np.asarray(self._kinds, dtype=np.uint8),
            addrs=np.asarray(self._addrs, dtype=np.int64),
            args=np.asarray(self._args, dtype=np.int64),
            args2=np.asarray(self._args2, dtype=np.int64),
            loops=list(self._loops),
        )

    def __len__(self) -> int:
        return len(self._kinds)

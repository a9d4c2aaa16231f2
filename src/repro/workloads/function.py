"""Per-invocation trace generation for one function instance.

A :class:`FunctionModel` owns a static :class:`~repro.workloads.layout.CodeLayout`
and generates an :class:`~repro.workloads.trace.InvocationTrace` for each
invocation index.  Generation is fully deterministic given
``(function seed, invocation index)``.

The structure of one invocation mirrors how a warm gRPC-served function
processes a request (Sec. 4.3):

1. the *dispatch spine*: every executed segment is walked in a stable
   order, partitioned into temporally clustered phases (gRPC decode ->
   runtime dispatch -> handler -> libraries -> response encode);
2. segments are revisited in consecutive bursts (call-site locality) which
   gives the L1-I its hit rate in warm executions;
3. hot segments (interpreter loop, serializers) recur in every phase;
4. loop hosts execute tight loops that provide the bulk of dynamic
   instructions for compute-heavy functions (AES, Fib);
5. optional segments execute probabilistically per invocation, producing
   the cross-invocation Jaccard commonality of Fig. 6b;
6. data accesses walk a per-phase slice of the data working set.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.units import LINE_SIZE
from repro.workloads.layout import CodeLayout, CodeSegment, build_layout
from repro.workloads.profiles import FunctionProfile
from repro.workloads.trace import InvocationTrace, LoopSpec, TraceBuilder

#: Base of the per-instance data arena.
DATA_BASE = 0x0000_2000_0000
#: Max blocks in a tight-loop body (tuned: bodies fit the L1-I).
MAX_LOOP_BODY_BLOCKS = 12


@dataclass(frozen=True)
class _LoopHost:
    segment: CodeSegment
    body: Sequence[int]
    site_pc: int


def _stable_seed(*parts: object) -> int:
    """A process-independent seed (``hash()`` of strings is randomized per
    interpreter run, which would make layouts irreproducible)."""
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


class FunctionModel:
    """Deterministic trace generator for one warm function instance."""

    def __init__(self, profile: FunctionProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        layout_seed = _stable_seed(profile.abbrev, seed, "layout") % (2 ** 31)
        # Build the layout slightly larger than the per-invocation target
        # footprint: skipped optional segments bring the executed footprint
        # back down to the profile's Fig. 6a value.
        skipped = profile.optional_fraction * (1.0 - profile.optional_include_prob)
        layout_bytes = int(profile.footprint_bytes / max(0.5, 1.0 - skipped))
        self.layout: CodeLayout = build_layout(
            footprint_bytes=layout_bytes,
            density=profile.density,
            optional_fraction=profile.optional_fraction,
            hot_fraction=profile.hot_fraction,
            seed=layout_seed,
        )
        rng = np.random.default_rng(layout_seed + 1)
        self._spine = self._build_spine(rng)
        self._hot = [seg for seg in self._spine if seg.hot and not seg.optional]
        self._loop_hosts = self._pick_loop_hosts(rng)
        self._branch_pcs = self._assign_branch_sites(rng)
        self._segment_sites = self._index_branch_sites()
        self._data_blocks = self._build_data_arena()
        # Per-segment taken-probability of its representative branch sites;
        # stable across invocations so warm predictors can train.
        self._site_bias = {
            pc: float(np.clip(rng.normal(profile.branch_bias, 0.05), 0.55, 0.98))
            for pc in self._branch_pcs
        }

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------

    def _build_spine(self, rng: np.random.Generator) -> List[CodeSegment]:
        """Order segments as executed: runtime and library code interleaves
        with user code rather than running role-by-role."""
        segments = list(self.layout.segments)
        order = rng.permutation(len(segments))
        return [segments[i] for i in order]

    def _pick_loop_hosts(self, rng: np.random.Generator) -> List[_LoopHost]:
        profile = self.profile
        if profile.loopiness <= 0.0:
            return []
        n_loops = max(3, int(round(6 + profile.loopiness * 24)))
        candidates = [seg for seg in self._spine
                      if not seg.optional and seg.n_blocks >= 4]
        if not candidates:
            candidates = [seg for seg in self._spine if seg.n_blocks >= 2]
        picks = rng.choice(len(candidates), size=min(n_loops, len(candidates)),
                           replace=False)
        hosts = []
        for idx in picks:
            seg = candidates[int(idx)]
            body_len = min(MAX_LOOP_BODY_BLOCKS, seg.n_blocks)
            start = int(rng.integers(0, seg.n_blocks - body_len + 1))
            body = seg.blocks[start:start + body_len]
            hosts.append(_LoopHost(segment=seg, body=body, site_pc=body[0] + 4))
        return hosts

    def _assign_branch_sites(self, rng: np.random.Generator) -> List[int]:
        pcs: List[int] = []
        per_seg = max(1, self.profile.branch_sites // max(1, len(self._spine)))
        for seg in self._spine:
            n = min(per_seg, seg.n_blocks)
            offsets = rng.choice(seg.n_blocks, size=n, replace=False)
            pcs.extend(int(seg.blocks[int(o)]) + 16 for o in offsets)
        return pcs

    def _index_branch_sites(self) -> Dict[str, List[int]]:
        """Each segment's branch sites: the PCs of ``_branch_pcs`` (in that
        order) that fall within the segment's span, looked up per visit by
        :meth:`_emit_branch_burst` instead of rescanning every site."""
        pcs = np.asarray(self._branch_pcs, dtype=np.int64)
        index: Dict[str, List[int]] = {}
        for seg in self._spine:
            inside = (pcs >= seg.blocks[0]) & (pcs <= seg.blocks[-1] + LINE_SIZE)
            index[seg.name] = [self._branch_pcs[int(i)]
                               for i in np.nonzero(inside)[0]]
        return index

    def _build_data_arena(self) -> np.ndarray:
        n_blocks = max(64, self.profile.data_ws_bytes // LINE_SIZE)
        base = DATA_BASE + (_stable_seed(self.profile.abbrev, self.seed,
                                         "data") % 4096) * 0x100000
        return base + np.arange(n_blocks, dtype=np.int64) * LINE_SIZE

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def invocation_trace(self, index: int) -> InvocationTrace:
        """Generate the trace of invocation number ``index``."""
        profile = self.profile
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(self.seed, 104729, index))
        )
        builder = TraceBuilder()

        executed = [seg for seg in self._spine
                    if not seg.optional or rng.random() < profile.optional_include_prob]
        phases = self._partition_phases(executed, profile.phases)

        # Instruction budgets.
        loop_budget = int(profile.instructions * profile.loopiness)
        walk_budget = profile.instructions - loop_budget

        # Visits per segment so the walk budget is met: one pass costs
        # sum(blocks) * insts_per_block; hot segments recur in every phase.
        hot_scale = 1.6  # hot segments are revisited more (see _sample_visits)
        base_cost = sum(
            seg.n_blocks * (hot_scale if seg.hot else 1.0) for seg in executed
        )
        hot_cost = sum(seg.n_blocks * hot_scale for seg in self._hot)
        pass_cost = (base_cost + hot_cost * max(0, len(phases) - 1)) \
            * profile.insts_per_block
        mean_visits = max(1.0, walk_budget / max(1.0, pass_cost))

        loops = self._schedule_loops(loop_budget, rng)
        loops_by_segment = {}
        for host, spec in loops:
            loops_by_segment.setdefault(host.segment.name, []).append(spec)

        data_cursor = 0
        data_blocks = self._data_blocks
        n_data = len(data_blocks)
        # Hot data (stack / connection state) reused across phases.
        hot_data = data_blocks[: max(8, n_data // 16)]

        for phase_idx, phase_segments in enumerate(phases):
            segs = list(phase_segments)
            if phase_idx > 0:
                segs.extend(self._hot)
            for seg in segs:
                visits = self._sample_visits(rng, mean_visits, seg.hot)
                self._walk_segment(builder, seg, visits, rng)
                for spec in loops_by_segment.pop(seg.name, ()):
                    builder.loop(spec)
                self._emit_branch_burst(builder, seg, visits, rng)
                data_cursor = self._emit_data_burst(
                    builder, rng, data_blocks, hot_data, data_cursor,
                    n_events=max(1, int(seg.n_blocks * visits * 0.30)),
                )
        # Loops whose host segment was optional and skipped still execute
        # from their (mandatory) call sites.
        for specs in loops_by_segment.values():
            for spec in specs:
                builder.loop(spec)
        return builder.build()

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _partition_phases(segments: List[CodeSegment],
                          n_phases: int) -> List[List[CodeSegment]]:
        n_phases = max(1, min(n_phases, len(segments)))
        size = -(-len(segments) // n_phases)
        return [segments[i:i + size] for i in range(0, len(segments), size)]

    @staticmethod
    def _sample_visits(rng: np.random.Generator, mean_visits: float,
                       hot: bool) -> int:
        scale = 1.6 if hot else 1.0
        lam = max(0.2, mean_visits * scale - 1.0)
        return 1 + int(rng.poisson(lam))

    def _walk_segment(self, builder: TraceBuilder, seg: CodeSegment,
                      visits: int, rng: np.random.Generator) -> None:
        """Walk a segment ``visits`` times back-to-back (call-site locality:
        repeated walks hit the L1-I)."""
        ipb = self.profile.insts_per_block
        for _ in range(visits):
            for j, addr in enumerate(seg.blocks):
                insts = ipb + int(rng.integers(-2, 3))
                taken = 1 if (j & 1) else 0
                builder.fetch(addr, max(2, insts), taken)

    def _emit_branch_burst(self, builder: TraceBuilder, seg: CodeSegment,
                           visits: int, rng: np.random.Generator) -> None:
        sites = self._segment_sites[seg.name]
        if not sites:
            return
        execs = max(1, visits * seg.n_blocks // max(1, len(sites)))
        for pc in sites:
            builder.branch_site(pc, execs, self._site_bias[pc])

    def _emit_data_burst(self, builder: TraceBuilder, rng: np.random.Generator,
                         data_blocks: np.ndarray, hot_data: np.ndarray,
                         cursor: int, n_events: int) -> int:
        n = len(data_blocks)
        for _ in range(n_events):
            if rng.random() < 0.35:
                addr = int(hot_data[int(rng.integers(0, len(hot_data)))])
            else:
                addr = int(data_blocks[cursor % n])
                cursor += 1 + int(rng.integers(0, 3))
            count = int(rng.integers(4, 13))
            if rng.random() < 0.30:
                builder.store(addr, count)
            else:
                builder.load(addr, count)
        return cursor

    def _schedule_loops(self, loop_budget: int,
                        rng: np.random.Generator) -> List:
        if not self._loop_hosts or loop_budget <= 0:
            return []
        weights = rng.dirichlet(np.ones(len(self._loop_hosts)) * 2.0)
        scheduled = []
        ipb = self.profile.insts_per_block
        for host, w in zip(self._loop_hosts, weights):
            budget = int(loop_budget * w)
            insts_per_iter = max(4, len(host.body) * ipb // 2)
            iterations = max(1, budget // insts_per_iter)
            if iterations < 2:
                continue
            scheduled.append((host, LoopSpec(
                blocks=tuple(host.body),
                iterations=iterations,
                insts_per_iteration=insts_per_iter,
                branches_per_iteration=1 + len(host.body) // 6,
            )))
        return scheduled

    # ------------------------------------------------------------------
    # Introspection used by characterization experiments
    # ------------------------------------------------------------------

    def footprint_blocks(self, index: int) -> "set[int]":
        """Unique instruction blocks of invocation ``index`` (Fig. 6a)."""
        return self.invocation_trace(index).instruction_blocks()

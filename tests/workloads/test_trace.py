"""Tests for the invocation trace representation and builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.units import LINE_SIZE
from repro.workloads.trace import (
    BRANCH,
    IFETCH,
    LOAD,
    LOOP,
    OP_EVENTS,
    OP_WALKS,
    STORE,
    ColumnarTrace,
    InvocationTrace,
    LoopSpec,
    SegmentPatterns,
    TraceBuilder,
    WalkPlan,
)

CODE = 0x5555_0000_0000


class TestLoopSpec:
    def test_totals(self):
        spec = LoopSpec(blocks=(CODE,), iterations=10, insts_per_iteration=7)
        assert spec.total_insts == 70
        assert spec.body_bytes == LINE_SIZE

    def test_rejects_zero_iterations(self):
        with pytest.raises(TraceError):
            LoopSpec(blocks=(CODE,), iterations=0, insts_per_iteration=1)

    def test_rejects_empty_body(self):
        with pytest.raises(TraceError):
            LoopSpec(blocks=(), iterations=1, insts_per_iteration=1)

    def test_rejects_zero_insts(self):
        with pytest.raises(TraceError):
            LoopSpec(blocks=(CODE,), iterations=1, insts_per_iteration=0)


class TestTraceBuilder:
    def test_fetch_aligns_addresses(self):
        b = TraceBuilder()
        b.fetch(CODE + 13, insts=4)
        trace = b.build()
        assert trace.addrs[0] == CODE

    def test_rejects_zero_insts(self):
        with pytest.raises(TraceError):
            TraceBuilder().fetch(CODE, insts=0)

    def test_rejects_bad_branch_prob(self):
        with pytest.raises(TraceError):
            TraceBuilder().branch_site(CODE, 10, 1.5)

    def test_rejects_zero_count_data(self):
        with pytest.raises(TraceError):
            TraceBuilder().load(CODE, count=0)

    def test_sequential_fetch_walk(self):
        b = TraceBuilder()
        for i in range(5):
            b.fetch(CODE + i * LINE_SIZE, insts=10)
        trace = b.build()
        assert len(trace) == 5
        assert trace.total_instructions == 50

    def test_event_kinds_roundtrip(self):
        b = TraceBuilder()
        b.fetch(CODE, 4, 1)
        b.load(CODE + 4096, 2)
        b.store(CODE + 8192, 1)
        b.branch_site(CODE + 64, 10, 0.5)
        b.loop(LoopSpec(blocks=(CODE,), iterations=2, insts_per_iteration=4))
        trace = b.build()
        assert trace.kinds.tolist() == [IFETCH, LOAD, STORE, BRANCH, LOOP]

    def test_len_tracks_builder(self):
        b = TraceBuilder()
        assert len(b) == 0
        b.fetch(CODE, 1)
        assert len(b) == 1


class TestInvocationTrace:
    def test_rejects_mismatched_arrays(self):
        with pytest.raises(TraceError):
            InvocationTrace(
                kinds=np.zeros(2, dtype=np.uint8),
                addrs=np.zeros(3, dtype=np.int64),
                args=np.zeros(2, dtype=np.int64),
                args2=np.zeros(2, dtype=np.int64),
            )

    @staticmethod
    def columns(kinds, args):
        n = len(kinds)
        return dict(kinds=np.asarray(kinds, dtype=np.uint8),
                    addrs=np.full(n, CODE, dtype=np.int64),
                    args=np.asarray(args, dtype=np.int64),
                    args2=np.zeros(n, dtype=np.int64))

    def test_rejects_unknown_event_kind(self):
        with pytest.raises(TraceError, match="kinds"):
            InvocationTrace(**self.columns([IFETCH, 9], [1, 1]))

    @pytest.mark.parametrize("loop_id", [1, -1])
    def test_rejects_loop_id_outside_the_table(self, loop_id):
        spec = LoopSpec(blocks=(CODE,), iterations=2, insts_per_iteration=4)
        InvocationTrace(**self.columns([IFETCH, LOOP], [1, 0]), loops=[spec])
        with pytest.raises(TraceError, match="LOOP"):
            InvocationTrace(**self.columns([IFETCH, LOOP], [1, loop_id]),
                            loops=[spec])

    def test_empty_trace_is_valid(self):
        trace = InvocationTrace(**self.columns([], []))
        assert len(trace) == 0
        assert trace.total_instructions == 0

    def test_total_instructions_includes_loops(self):
        b = TraceBuilder()
        b.fetch(CODE, 10)
        b.loop(LoopSpec(blocks=(CODE + 4096,), iterations=5,
                        insts_per_iteration=8))
        trace = b.build()
        assert trace.total_instructions == 10 + 40

    def test_instruction_blocks_include_loop_bodies(self):
        b = TraceBuilder()
        b.fetch(CODE, 1)
        b.loop(LoopSpec(blocks=(CODE + 4096, CODE + 4096 + LINE_SIZE),
                        iterations=2, insts_per_iteration=4))
        blocks = b.build().instruction_blocks()
        assert CODE in blocks
        assert CODE + 4096 in blocks
        assert len(blocks) == 3

    def test_footprint_bytes(self):
        b = TraceBuilder()
        b.fetch(CODE, 1)
        b.fetch(CODE, 1)          # duplicate: one block
        b.fetch(CODE + LINE_SIZE, 1)
        assert b.build().instruction_blocks() == {CODE, CODE + LINE_SIZE}

    def test_data_accesses_stay_out_of_instruction_blocks(self):
        b = TraceBuilder()
        b.load(CODE, 1)
        b.store(CODE + LINE_SIZE, 1)
        b.fetch(CODE + 4096, 1)
        trace = b.build()
        assert trace.instruction_blocks() == {CODE + 4096}
        assert trace.total_instructions == 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 30)),
                    min_size=1, max_size=60))
    def test_total_instructions_matches_sum(self, fetches):
        b = TraceBuilder()
        total = 0
        for block_idx, insts in fetches:
            b.fetch(CODE + block_idx * LINE_SIZE, insts)
            total += insts
        assert b.build().total_instructions == total


# Two segments of two blocks each, as FunctionModel lays them out.
A, B, C, D = (CODE + i * LINE_SIZE for i in range(4))
DATA = 0x2000_0000


def planned_trace(fetch_runs, starts, visits, segments):
    """Fetch runs separated by one load each, with a walk plan over the
    segments ``[A, B]`` and ``[C, D]``."""
    builder = TraceBuilder()
    for run in fetch_runs:
        for addr in run:
            builder.fetch(addr, 4)
        builder.load(DATA)
    trace = builder.build()
    table = SegmentPatterns(np.array([A, B, C, D], dtype=np.int64),
                            np.array([0, 2]), np.array([2, 2]))
    plan = WalkPlan(starts=np.array(starts), visits=np.array(visits),
                    segments=np.array(segments), patterns=table)
    return InvocationTrace(trace.kinds, trace.addrs, trace.args,
                           trace.args2, walk_plan=plan)


class TestWalkPlan:
    def test_plan_names_each_walk_and_its_segment_pattern(self):
        trace = planned_trace([(A, B, A, B), (C, D)], [0, 5], [2, 1], [0, 1])
        table = trace.walk_plan.patterns
        assert ColumnarTrace.from_trace(trace).ops == [
            (OP_WALKS, 0, 4, 2, table[0]), (OP_EVENTS, 4, 5),
            (OP_WALKS, 5, 7, 2, table[1]), (OP_EVENTS, 7, 8)]
        assert table[0] is table[0]
        assert table[0].addrs == (A, B)

    def test_rejects_a_walk_end_off_by_one(self):
        trace = planned_trace([(A, B, A, B, A), (C, D)], [0, 6], [2, 1],
                              [0, 1])
        with pytest.raises(TraceError, match="IFETCH runs"):
            ColumnarTrace.from_trace(trace)

    def test_rejects_adjacent_visits(self):
        # Segment 0 then segment 1 with no event between: one IFETCH run.
        trace = planned_trace([(A, B, C, D)], [0, 2], [1, 1], [0, 1])
        with pytest.raises(TraceError, match="IFETCH runs"):
            ColumnarTrace.from_trace(trace)

    def test_rejects_addresses_other_than_the_segments(self):
        trace = planned_trace([(A, B, A, C)], [0], [2], [0])
        with pytest.raises(TraceError, match="addresses"):
            ColumnarTrace.from_trace(trace)

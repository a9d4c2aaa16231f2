"""The vectorized trace generator against its per-event oracle.

``FunctionModel.invocation_trace`` reads each segment visit's raw PCG64
words in one call and decodes them with numpy (``decode_words``); the
per-event generator ``_per_event_trace`` draws the same values one numpy
call at a time.  These tests pin the two together:

* numpy's word contract itself (doubles read whole words, bounded draws
  read buffered half-words, low half first);
* a live differential of both generators on every Table-2 profile;
* committed column digests of a 160-trace matrix, recorded by the
  per-event generator (``--update-golden`` rewrites them from it), plus an
  assert that none of those invocations needed the fallback;
* the Lemire rejections that send an invocation to the fallback;
* the walk plan each generated trace carries: its columnar IR equals the
  one scanned from the same arrays without a plan, and a model's traces
  share one pattern per segment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import RunConfig, make_model
from repro.workloads import function, trace as trace_module
from repro.workloads.function import FunctionModel, decode_words
from repro.workloads.suite import SUITE, get_profile
from repro.workloads.trace import (
    OP_WALKS,
    ColumnarTrace,
    InvocationTrace,
    TraceBuilder,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "trace_columns.json"

#: Digested column arrays, in digest order: the digest is over
#: ``name || dtype || raw bytes`` for each entry.
_COLUMNS = ("kinds", "addrs", "args", "args2", "loop_blocks", "loop_lens",
            "loop_iters", "loop_insts", "loop_branches")


def _column_digest(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name in _COLUMNS:
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(str(array.dtype).encode())
        digest.update(b"\0")
        digest.update(array.tobytes())
    return digest.hexdigest()


def _trace_columns(trace: InvocationTrace) -> dict:
    """The digested columns of ``trace``: its event arrays and its loop
    table flattened into parallel arrays."""
    return {
        "kinds": trace.kinds,
        "addrs": trace.addrs,
        "args": trace.args,
        "args2": trace.args2,
        "loop_blocks": np.asarray(
            [b for spec in trace.loops for b in spec.blocks], dtype=np.int64),
        "loop_lens": np.asarray([len(spec.blocks) for spec in trace.loops],
                                dtype=np.int64),
        "loop_iters": np.asarray([spec.iterations for spec in trace.loops],
                                 dtype=np.int64),
        "loop_insts": np.asarray(
            [spec.insts_per_iteration for spec in trace.loops],
            dtype=np.int64),
        "loop_branches": np.asarray(
            [spec.branches_per_iteration for spec in trace.loops],
            dtype=np.int64),
    }

#: The digest matrix: every profile at both scales and three seeds,
#: invocation 0, plus invocation 1 on seed 1.
SCALES = (0.35, 1.0)
SEEDS = (0, 1, 4242)


def matrix(scales=SCALES):
    """``(key, model, invocation)`` for each trace of the digest matrix."""
    for profile in SUITE:
        for scale in scales:
            for seed in SEEDS:
                model = make_model(profile, RunConfig(
                    seed=seed, instruction_scale=scale))
                for invocation in ((0, 1) if seed == 1 else (0,)):
                    key = (f"{profile.abbrev}/scale={scale}/seed={seed}/"
                           f"invocation={invocation}")
                    yield key, model, invocation


def assert_same_trace(actual, expected):
    for name in ("kinds", "addrs", "args", "args2"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        np.testing.assert_array_equal(a, e, err_msg=name)
    assert actual.loops == expected.loops


class TestWordContract:
    """numpy's PCG64 ``Generator`` draws as ``decode_words`` assumes."""

    @staticmethod
    def pair():
        return tuple(np.random.default_rng(
            np.random.SeedSequence(entropy=(3, 104729, 0))) for _ in range(2))

    def test_bounded_draws_read_one_stream_of_halves(self):
        numpy_rng, raw_rng = self.pair()
        drawn = [int(numpy_rng.integers(-2, 3)) for _ in range(5)]
        words = raw_rng.bit_generator.random_raw(3)
        halves = [int(h) for w in words for h in (w & 0xFFFF_FFFF, w >> 32)]
        assert drawn == [((h * 5) >> 32) - 2 for h in halves[:5]]
        state = numpy_rng.bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == (1, halves[5])

    def test_doubles_read_whole_words_past_the_buffer(self):
        numpy_rng, raw_rng = self.pair()
        numpy_rng.integers(0, 3)
        raw_rng.bit_generator.random_raw(1)
        double = numpy_rng.random()
        word = raw_rng.bit_generator.random_raw(1)
        assert double == float(function._unit(word)[0])
        assert numpy_rng.bit_generator.state["has_uint32"] == 1


class TestDifferential:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("abbrev", [p.abbrev for p in SUITE])
    def test_vectorized_equals_per_event(self, abbrev, scale):
        model = make_model(get_profile(abbrev),
                           RunConfig(seed=1, instruction_scale=scale))
        fast = model._vectorized_trace(0)
        assert fast is not None, "the decode rejected a draw"
        assert_same_trace(fast, model._per_event_trace(0))

    def test_tiny_profile_every_invocation(self, tiny_model):
        for index in range(4):
            assert_same_trace(tiny_model._vectorized_trace(index),
                              tiny_model._per_event_trace(index))


def test_trace_columns_match_golden(update_golden):
    """The matrix's column digests equal those recorded by the per-event
    generator, and no invocation of it took the fallback (a fast path
    that always rejects would still produce identical bytes)."""
    if update_golden:
        digests = {key: _column_digest(_trace_columns(
            model._per_event_trace(invocation)))
            for key, model, invocation in matrix()}
        GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2)
                          + "\n", encoding="utf-8")
        pytest.skip(f"golden digests {GOLDEN.name} regenerated")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual, fell_back = {}, []
    for key, model, invocation in matrix():
        actual[key] = _column_digest(_trace_columns(
            model.invocation_trace(invocation)))
        if model._vectorized_trace(invocation) is None:
            fell_back.append(key)
    assert len(expected) == 160
    assert actual == expected
    assert not fell_back


# ----------------------------------------------------------------------
# Lemire rejection
# ----------------------------------------------------------------------

HOT_WORD = 0            # random() == 0.0: a hot-data event
COLD_WORD = 1 << 63     # random() == 0.5: a cursor event
N_HOT = 24


def half_with_leftover(bound: int, leftover: int) -> int:
    """A half-word ``h`` with ``(h * bound) mod 2**32 == leftover``."""
    zeros = (bound & -bound).bit_length() - 1
    assert leftover % (1 << zeros) == 0
    modulus = 1 << (32 - zeros)
    half = (leftover >> zeros) * pow(bound >> zeros, -1, modulus) % modulus
    assert (half * bound) % (1 << 32) == leftover
    return half


def decode(walk_word=0x1234_5678_9ABC_DEF0, first=COLD_WORD, pick=1 << 31,
           count=1 << 31, n_hot=N_HOT):
    """Decode one visit of two walk halves and one data event."""
    words = np.array([walk_word, first, (count << 32) | pick, 0],
                     dtype=np.uint64)
    return decode_words(words, np.array([2]), np.array([1]), None, n_hot)


class TestRejection:
    def test_ordinary_words_decode(self):
        draws = decode()
        assert draws is not None
        assert draws.walk.tolist() == [(0x9ABC_DEF0 * 5 >> 32) - 2,
                                       (0x1234_5678 * 5 >> 32) - 2]
        assert draws.hot.tolist() == [False]
        assert draws.pick.tolist() == [1]
        assert draws.count.tolist() == [4 + 4]
        assert draws.store.tolist() == [True]

    @pytest.mark.parametrize("walk_word", [0x1234_5678_0000_0000,
                                           0x0000_0000_9ABC_DEF0])
    def test_zero_walk_half_rejects(self, walk_word):
        assert decode(walk_word=walk_word) is None

    def test_step_leftover_below_threshold_rejects(self):
        assert decode(pick=half_with_leftover(3, 1)) is not None
        assert decode(pick=half_with_leftover(3, 0)) is None

    @pytest.mark.parametrize("abbrev", ["Pay-N", "AES-N", "Auth-G"])
    def test_hot_leftover_below_threshold_rejects(self, abbrev):
        bound = len(FunctionModel(get_profile(abbrev))._hot_data)
        threshold = (1 << 32) % bound
        # Leftovers are multiples of the bound's largest power-of-two factor.
        below = threshold - (bound & -bound)
        assert decode(first=HOT_WORD, n_hot=bound,
                      pick=half_with_leftover(bound, threshold)) is not None
        assert decode(first=HOT_WORD, n_hot=bound,
                      pick=half_with_leftover(bound, below)) is None

    def test_count_leftover_below_threshold_rejects(self):
        assert (1 << 32) % 9 == 4
        assert decode(count=half_with_leftover(9, 4)) is not None
        assert decode(count=half_with_leftover(9, 3)) is None

    def test_buffered_half_starts_the_stream(self):
        words = np.array([0x1234_5678_9ABC_DEF0, COLD_WORD,
                          (1 << 63) | (1 << 31), 0], dtype=np.uint64)
        walk, events = np.array([3]), np.array([1])
        assert decode_words(words, walk, events, 0, N_HOT) is None
        draws = decode_words(words, walk, events, 1 << 31, N_HOT)
        assert draws.walk.tolist() == [0, (0x9ABC_DEF0 * 5 >> 32) - 2,
                                       (0x1234_5678 * 5 >> 32) - 2]

    def test_rejection_falls_back_to_per_event(self, tiny_model,
                                               monkeypatch):
        expected = tiny_model._per_event_trace(2)
        monkeypatch.setattr(function, "decode_words", lambda *args: None)
        assert tiny_model._vectorized_trace(2) is None
        assert_same_trace(tiny_model.invocation_trace(2), expected)


# ----------------------------------------------------------------------
# Walk plans
# ----------------------------------------------------------------------

PATTERN_FIELDS = ("addrs", "blocks", "block_set", "unique_last",
                  "all_distinct", "page_runs")


def plan_free(trace: InvocationTrace) -> InvocationTrace:
    """The same arrays without the walk plan: the IR scans for walks."""
    return InvocationTrace(trace.kinds, trace.addrs, trace.args,
                           trace.args2, trace.loops)


def walk_ops(ct: ColumnarTrace) -> list:
    return [op for op in ct.ops if op[0] == OP_WALKS]


def assert_same_ir(actual: ColumnarTrace, expected: ColumnarTrace):
    """Every op, pattern field, array, list column and total."""
    assert [op[:4] for op in actual.ops] == [op[:4] for op in expected.ops]
    assert all(type(value) is int for op in actual.ops for value in op[1:4])
    for a, e in zip(walk_ops(actual), walk_ops(expected)):
        for name in PATTERN_FIELDS:
            assert getattr(a[4], name) == getattr(e[4], name), name
    for f in dataclasses.fields(ColumnarTrace):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == e.dtype, f.name
            np.testing.assert_array_equal(a, e, err_msg=f.name)
        elif f.name.endswith("_list") or f.name in ("loops", "instr_total"):
            assert a == e, f.name


class TestWalkPlan:
    def test_plan_ir_equals_scanned_ir(self, full_trace_matrix):
        """Over the digest matrix (its 0.35-scale half unless
        ``--full-trace-matrix``), the IR built from each trace's plan
        equals the IR scanned from a plan-free copy of its arrays."""
        scales = SCALES if full_trace_matrix else (0.35,)
        for key, model, invocation in matrix(scales):
            trace = model.invocation_trace(invocation)
            assert trace.walk_plan is not None, key
            assert_same_ir(ColumnarTrace.from_trace(trace),
                           ColumnarTrace.from_trace(plan_free(trace)))

    def test_traces_share_one_pattern_per_segment(self, tiny_profile):
        model = FunctionModel(tiny_profile, seed=7)
        patterns, walks = {}, 0
        for index in range(4):
            trace = model.invocation_trace(index)
            plan = trace.walk_plan
            ops = walk_ops(trace.columnar())
            assert len(ops) == len(plan.segments)
            walks += len(ops)
            for segment, op in zip(plan.segments.tolist(), ops):
                assert patterns.setdefault(segment, op[4]) is op[4]
                assert op[4] is model._patterns[segment]
        assert walks > 2 * len(patterns)  # segments recur across traces
        for pattern in patterns.values():
            for name in ("addrs", "blocks", "unique_last", "page_runs"):
                assert isinstance(getattr(pattern, name), tuple), name
            assert isinstance(pattern.block_set, frozenset)

    def test_plan_free_traces_take_the_scan(self, tiny_model, monkeypatch):
        scanned = []
        find_period = trace_module._find_period
        monkeypatch.setattr(trace_module, "_find_period",
                            lambda run: scanned.append(len(run))
                            or find_period(run))
        planned = ColumnarTrace.from_trace(tiny_model.invocation_trace(2))
        assert not scanned

        builder = TraceBuilder()
        for addr in (0x4000_0000, 0x4000_0040) * 3:
            builder.fetch(addr, 4)
        assert walk_ops(ColumnarTrace.from_trace(builder.build()))[0][3] == 2
        assert scanned == [6]

        scanned.clear()
        monkeypatch.setattr(function, "decode_words", lambda *args: None)
        fallback = tiny_model.invocation_trace(2)
        assert fallback.walk_plan is None
        oracle = ColumnarTrace.from_trace(fallback)
        assert len(scanned) == len(walk_ops(oracle))
        assert_same_ir(planned, oracle)

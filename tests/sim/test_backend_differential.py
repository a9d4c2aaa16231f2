"""Scalar-vs-columnar differential battery.

The columnar backend's contract is *byte identity*: for every trace, the
vectorized interpreter must produce an :class:`InvocationResult` whose
canonical JSON encoding equals the scalar reference's, and must leave the
simulator in exactly the same microarchitectural state (cache LRU orders,
prefetch ledgers, TLBs, predictor training, BTB contents, counters).

Four tiers of evidence:

* the full Table-2 suite (all 20 profiles), flushed and warm;
* every simulating registered config (record hooks, fill queues, perfect
  I$, prefetch flags) on three profiles, whole sequence results compared;
* seeded-random :class:`TraceBuilder` programs exercising event mixes the
  generator never emits (the property battery);
* targeted shapes that aim at the bulk-execution preconditions (repeat
  folding, set conflicts, prefetch-flagged victims), some starting from a
  prepared hierarchy (a perfect-I$ set, an installed Jukebox recorder,
  prefetch-flagged L2 and LLC copies).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.metadata import MetadataBuffer
from repro.core.recorder import JukeboxRecorder
from repro.core.regions import RegionGeometry
from repro.engine.job import canonicalize
from repro.experiments.common import RunConfig, make_traces, run_config
from repro.experiments.fig08_metadata import collect_miss_stream
from repro.sim.core import Simulator
from repro.sim.params import JukeboxParams, skylake
from repro.sim.core import simulate
from repro.workloads import TraceBuilder
from repro.workloads.suite import SUITE, get_profile
from repro.workloads.trace import LoopSpec

ALL_PROFILES = tuple(p.abbrev for p in SUITE)


def canonical_json(results) -> str:
    return json.dumps([canonicalize(r) for r in results], sort_keys=True,
                      separators=(",", ":"))


def hook_state(hook):
    """What a record hook has seen: a Jukebox recorder's CRRB entries in
    FIFO order, its metadata-buffer entries and counters; a test hook's
    log of calls."""
    if hook is None:
        return None
    if isinstance(hook, JukeboxRecorder):
        return (tuple(hook.crrb._entries.items()), tuple(hook.buffer),
                hook.buffer.dropped_entries, hook.l2_misses_seen,
                hook.entries_written)
    return tuple(hook.calls)


def full_state(sim):
    """Every observable bit of microarchitectural state, as a comparable
    value (not just the result: divergent state would poison the *next*
    invocation even if this one matched)."""
    h = sim.hierarchy
    caches = tuple(
        (tuple(tuple(s) for s in c._sets), frozenset(c._pf_pending))
        for c in (h.l1i, h.l1d, h.l2, h.llc))
    tlbs = tuple(tuple(tuple(s) for s in t._sets) for t in (h.itlb, h.dtlb))
    br = sim.branches
    btb = br.btb
    return (caches, tlbs, frozenset(br._trained),
            tuple(tuple(s) for s in btb._sets),
            br.mispredicts, br.cold_mispredicts, br.executions,
            btb.lookups, btb.misses, frozenset(h._perfect_blocks),
            dataclasses.astuple(h.stats.memory), hook_state(h.record_hook))


def run_sequence(traces, backend, flush, prepare=None):
    """Run ``traces`` back to back on a fresh simulator; ``prepare(sim)``
    (if given) sets up the starting hierarchy state first."""
    sim = Simulator(skylake(), backend=backend)
    if prepare is not None:
        prepare(sim)
    results = []
    for trace in traces:
        if flush:
            sim.flush_microarch_state()
        results.append(simulate(trace, sim=sim))
        sim.hierarchy.finish_invocation()
    return canonical_json(results), full_state(sim)


def assert_backends_identical(traces, flush, prepare=None):
    """Compare both backends; returns the scalar results' canonical form
    so callers can check that a shape reached the state it aims at."""
    scalar_json, scalar_state = run_sequence(traces, "scalar", flush,
                                             prepare)
    columnar_json, columnar_state = run_sequence(traces, "columnar", flush,
                                                 prepare)
    assert columnar_json == scalar_json
    assert columnar_state == scalar_state
    return json.loads(scalar_json)


class TestTable2Suite:
    """Byte identity over every Table-2 workload, lukewarm and warm."""

    CFG = RunConfig(invocations=3, warmup=1, seed=1, instruction_scale=0.05)

    @pytest.mark.parametrize("abbrev", ALL_PROFILES)
    def test_flushed_sequence_identical(self, abbrev):
        traces = make_traces(get_profile(abbrev), self.CFG)
        assert_backends_identical(traces, flush=True)

    @pytest.mark.parametrize("abbrev", ALL_PROFILES)
    def test_warm_sequence_identical(self, abbrev):
        traces = make_traces(get_profile(abbrev), self.CFG)
        assert_backends_identical(traces, flush=False)


class TestRegisteredConfigs:
    """Byte identity of whole sequence results, Jukebox reports included,
    for every simulating config: record hooks (Jukebox, PIF, fig. 8's
    miss collector), fill queues and prefetch flags reach the bulk
    preconditions here."""

    CFG = RunConfig(invocations=3, warmup=1, instruction_scale=0.05)
    CONFIGS = (("reference", {}), ("baseline", {}), ("jukebox", {}),
               ("perfect", {}), ("pif", {}), ("pif", {"with_jukebox": True}))

    # Profile-major order, so each profile's traces are generated once.
    @pytest.mark.parametrize("config,opts", CONFIGS,
                             ids=[c + ("+jb" if o else "")
                                  for c, o in CONFIGS])
    @pytest.mark.parametrize("abbrev", ("Auth-G", "Fib-P", "ProdL-G"))
    def test_sequence_result_identical(self, abbrev, config, opts):
        profile = get_profile(abbrev)
        scalar, columnar = (
            canonical_json([run_config(profile, skylake(),
                                       self.CFG.replace(backend=backend),
                                       config, **opts)])
            for backend in ("scalar", "columnar"))
        assert columnar == scalar

    @pytest.mark.parametrize("abbrev", ("Auth-G", "Fib-P", "ProdL-G"))
    def test_fig8_miss_stream_identical(self, abbrev):
        # Fig. 8's collector declares fetch_is_noop, so bulk miss and
        # prefetched-L2 walks report to it.
        scalar, columnar = (
            collect_miss_stream(get_profile(abbrev), skylake(),
                                self.CFG.replace(backend=backend))
            for backend in ("scalar", "columnar"))
        assert scalar and columnar == scalar


def random_trace(seed: int):
    """A seeded random program over the full event vocabulary."""
    rng = np.random.default_rng(seed)
    b = TraceBuilder()
    code_blocks = [int(x) * 64 for x in rng.integers(0, 4096, size=64)]
    data_blocks = [(1 << 24) + int(x) * 64
                   for x in rng.integers(0, 2048, size=64)]
    walk = [code_blocks[i] for i in rng.integers(0, len(code_blocks),
                                                 size=24)]
    for _ in range(int(rng.integers(40, 140))):
        roll = rng.random()
        if roll < 0.45:
            b.fetch(code_blocks[int(rng.integers(0, len(code_blocks)))],
                    insts=int(rng.integers(1, 30)),
                    taken_branches=int(rng.integers(0, 3)))
        elif roll < 0.60:
            # Repeated walks drive the bulk classifier and repeat folding.
            for addr in walk:
                b.fetch(addr, insts=int(rng.integers(2, 16)))
        elif roll < 0.80:
            addr = data_blocks[int(rng.integers(0, len(data_blocks)))]
            count = int(rng.integers(1, 12))
            if rng.random() < 0.3:
                b.store(addr, count=count)
            else:
                b.load(addr, count=count)
        elif roll < 0.95:
            b.branch_site(0x400000 + int(rng.integers(0, 512)) * 4,
                          executions=int(rng.integers(1, 80)),
                          taken_prob=float(rng.random()))
        else:
            body = tuple(
                (1 << 22) + int(x) * 64
                for x in rng.integers(0, 64, size=int(rng.integers(2, 9))))
            b.loop(LoopSpec(blocks=body,
                            iterations=int(rng.integers(2, 40)),
                            insts_per_iteration=int(rng.integers(8, 64)),
                            branches_per_iteration=int(rng.integers(1, 4))))
    return b.build()


class TestSeededRandomPrograms:
    """Property battery: arbitrary seeded event streams never diverge."""

    @pytest.mark.parametrize("seed", range(12))
    def test_flushed_identical(self, seed):
        traces = [random_trace(seed * 31 + k) for k in range(3)]
        assert_backends_identical(traces, flush=True)

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_warm_identical(self, seed):
        traces = [random_trace(seed * 31 + k) for k in range(3)]
        assert_backends_identical(traces, flush=False)


class TestTargetedShapes:
    """Hand-built shapes aimed at specific bulk-path preconditions."""

    def test_pure_repeat_walk_folds_identically(self):
        b = TraceBuilder()
        blocks = [i * 64 for i in range(12)]
        for _ in range(20):
            for addr in blocks:
                b.fetch(addr, insts=8, taken_branches=1)
        assert_backends_identical([b.build()], flush=True)

    def test_itlb_aliasing_walk(self):
        # Pages far apart so the walk spans many I-TLB sets and the walk's
        # pages do not all fit one set.
        b = TraceBuilder()
        blocks = [i * 4096 * 17 for i in range(40)]
        for _ in range(4):
            for addr in blocks:
                b.fetch(addr, insts=4)
        assert_backends_identical([b.build()], flush=True)

    def test_set_conflicting_walk(self):
        # All blocks in the same L1-I set: walk exceeds associativity, so
        # repeats can never fold and every pass re-walks cold.
        b = TraceBuilder()
        stride = 64 * 64  # one full L1-I set period
        blocks = [i * stride for i in range(16)]
        for _ in range(6):
            for addr in blocks:
                b.fetch(addr, insts=4)
        assert_backends_identical([b.build()], flush=True)

    def test_data_stream_with_next_line_prefetch(self):
        b = TraceBuilder()
        for i in range(200):
            b.load((1 << 26) + i * 64, count=2)
        for i in range(200):
            b.load((1 << 26) + i * 64)  # re-touch: hits + prefetch flags
        assert_backends_identical([b.build()], flush=True)

    def test_interleaved_code_and_data_same_blocks(self):
        # Data accesses to the blocks the instruction walk touches: the
        # d-side and i-side are separate caches but share L2/LLC.
        b = TraceBuilder()
        blocks = [i * 64 for i in range(30)]
        for _ in range(3):
            for addr in blocks:
                b.fetch(addr, insts=6)
                b.load(addr)
        assert_backends_identical([b.build()], flush=True)

    def test_branch_heavy_with_cold_btb(self):
        b = TraceBuilder()
        for site in range(300):
            b.branch_site(0x500000 + site * 4, executions=1 + site % 7,
                          taken_prob=(site % 11) / 10.0)
        assert_backends_identical([b.build()], flush=True)


def walk_trace(addrs, walks):
    """``walks`` back-to-back passes over ``addrs`` (one walk op)."""
    b = TraceBuilder()
    for _ in range(walks):
        for addr in addrs:
            b.fetch(addr, insts=4)
    return b.build()


def install_recorder(sim, **params):
    """Install a fresh Jukebox recorder as ``sim``'s record hook."""
    h = sim.hierarchy
    params = JukeboxParams(**params)
    buffer = MetadataBuffer(geometry=RegionGeometry(params.region_size),
                            limit_bytes=params.metadata_bytes)
    h.record_hook = JukeboxRecorder(params, buffer, memory=h.memory)


class MissLog:
    """A ``fetch_is_noop`` record hook that logs the addresses it sees,
    like fig. 8's miss collector."""

    fetch_is_noop = True

    def __init__(self):
        self.calls = []

    def on_fetch(self, block_vaddr, cycle):
        pass

    def on_l2_inst_miss(self, block_vaddr, cycle):
        self.calls.append(block_vaddr)


class TestPreparedHierarchy:
    """Bulk walk classes entered from a prepared hierarchy: the same
    preparation runs on both backends before the first trace.  The
    perfect-I$ set, the DRAM traffic counters and a record hook's state
    are part of the compared state (:func:`full_state`).

    Skylake geometry: the L1-I is 8-way with 64 sets, the L2 8-way with
    2048 sets and the LLC 16-way with 8192 sets, so block ``b`` shares an
    L1-I set with ``b + 64 * j``, an L2 set with ``b + 2048 * j`` and an
    LLC set with ``b + 8192 * j``.
    """

    WALK = tuple(range(100, 112))  # distinct blocks, one per L1-I set

    @staticmethod
    def fill_set(cache, block, stride, prefetch):
        """Fill ``block``'s set of ``cache`` with other lines."""
        for j in range(1, cache.assoc + 1):
            cache.insert(block + stride * j, prefetch=prefetch)

    def test_l2_hit_walk_evicts_prefetched_l1i_lines(self):
        def prepare(sim):
            h = sim.hierarchy
            for blk in self.WALK:
                h.l2.insert(blk)
                self.fill_set(h.l1i, blk, 64, prefetch=True)

        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.WALK], walks=4)],
            flush=False, prepare=prepare)
        assert results[0]["stats"]["l2"]["inst_hits"] == len(self.WALK)

    def test_miss_walk_evicts_unused_prefetches(self):
        def prepare(sim):
            h = sim.hierarchy
            for blk in self.WALK:
                self.fill_set(h.llc, blk, 8192, prefetch=True)
                self.fill_set(h.l2, blk, 2048, prefetch=True)
                self.fill_set(h.l1i, blk, 64, prefetch=True)

        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.WALK], walks=4)],
            flush=False, prepare=prepare)
        assert results[0]["stats"]["llc"]["inst_misses"] == len(self.WALK)
        assert results[0]["stats"]["l2"]["prefetched_unused"] == len(self.WALK)

    @pytest.mark.parametrize("n", (2, 5, 8, 9, 16))
    def test_l2_hit_walk_sharing_one_l1i_set(self, n):
        # ``n`` blocks in L1-I set 0 (distinct L2 sets), the set already
        # full: up to 8 the repeat walks fold, beyond 8 walk 1 evicts its
        # own blocks and the repeats cannot fold.
        blocks = [64 * i for i in range(1, n + 1)]

        def prepare(sim):
            h = sim.hierarchy
            for blk in blocks:
                h.l2.insert(blk)
            for j in range(8):
                h.l1i.insert(64 * (100 + j), prefetch=j % 2 == 0)

        results = assert_backends_identical(
            [walk_trace([b * 64 for b in blocks], walks=4)],
            flush=False, prepare=prepare)
        assert results[0]["stats"]["l2"]["inst_hits"] >= n

    @staticmethod
    def perfect(sim, blocks=()):
        """Switch on perfect-I$ mode with ``blocks`` already in the set."""
        sim.hierarchy.perfect_icache = True
        sim.hierarchy._perfect_blocks.update(blocks)

    @staticmethod
    def sources(result):
        return result["fetch_sources"][1]

    def test_perfect_set_half_filled_falls_back(self):
        # Half the walk is in the set: walk 1 mixes perfect hits with
        # first touches, so it runs per event; its misses join the set
        # and the repeats are perfect hits.
        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.WALK], walks=4)],
            flush=False,
            prepare=lambda sim: self.perfect(sim, self.WALK[::2]))
        assert self.sources(results[0]) == {"perfect": 42, "memory": 6}

    def test_perfect_set_full_folds_repeats(self):
        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.WALK], walks=4)] * 2,
            flush=True, prepare=lambda sim: self.perfect(sim, self.WALK))
        for result in results:
            assert self.sources(result) == {"perfect": 48}
            assert result["stats"]["l1i"]["inst_hits"] == 48
            assert result["stats"]["itlb"]["inst_misses"] == 1

    def test_perfect_walk_with_itlb_page_aliasing(self):
        # Ten pages in one 8-way I-TLB set (16 sets): every walk misses
        # the I-TLB on every page, so the repeats cannot fold.
        addrs = [16 * k * 4096 for k in range(10)]
        results = assert_backends_identical(
            [walk_trace(addrs, walks=3)], flush=False,
            prepare=lambda sim: self.perfect(sim, [a >> 6 for a in addrs]))
        assert self.sources(results[0]) == {"perfect": 30}
        assert results[0]["stats"]["itlb"]["inst_misses"] == 30

    def test_first_touch_miss_walk_repeats_are_perfect(self):
        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.WALK], walks=4)] * 2,
            flush=True, prepare=self.perfect)
        assert self.sources(results[0]) == {"memory": 12, "perfect": 36}
        # The set survives the flush: the next invocation is all perfect.
        assert self.sources(results[1]) == {"perfect": 48}

    def test_first_touch_l2_walk_repeats_are_perfect(self):
        def prepare(sim):
            self.perfect(sim)
            for blk in self.WALK:
                sim.hierarchy.l2.insert(blk)

        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.WALK], walks=4)],
            flush=False, prepare=prepare)
        assert self.sources(results[0]) == {"l2": 12, "perfect": 36}
        assert results[0]["stats"]["l1i"]["inst_misses"] == 12

    # One block per 1 KiB code region, so each is its own CRRB entry.
    REGION_WALK = tuple(100 + 16 * k for k in range(12))

    def test_recorder_crrb_evicts_inside_bulk_miss_walk(self):
        # Twelve regions through a 4-entry CRRB evict eight entries
        # mid-walk; a 40-byte metadata buffer holds five 54-bit entries
        # (7 bytes written each) and drops the other three.
        results = assert_backends_identical(
            [walk_trace([b * 64 for b in self.REGION_WALK], walks=4)],
            flush=False,
            prepare=lambda sim: install_recorder(sim, crrb_entries=4,
                                                 metadata_bytes=40))
        assert self.sources(results[0]) == {"memory": 12, "l1": 36}
        assert results[0]["stats"]["memory"]["metadata_record"] == 5 * 7

    def test_hook_sees_bulk_miss_walk_in_order(self):
        addrs = [b * 64 for b in self.REGION_WALK]
        hooks = []

        def prepare(sim):
            hooks.append(MissLog())
            sim.hierarchy.record_hook = hooks[-1]

        results = assert_backends_identical(
            [walk_trace(addrs, walks=4)], flush=False, prepare=prepare)
        assert self.sources(results[0]) == {"memory": 12, "l1": 36}
        for hook in hooks:
            assert hook.calls == addrs

    @pytest.mark.parametrize("hook", (None, "recorder", "miss-log"))
    def test_l2_walk_over_prefetched_lines(self, hook):
        # Even blocks carry an L2 prefetch flag and every block's LLC copy
        # does: only the flagged L2 hits may clear theirs.  The recorder
        # sees six regions through a 2-entry CRRB.
        addrs = [b * 64 for b in self.REGION_WALK]
        logs = []

        def prepare(sim):
            h = sim.hierarchy
            for k, blk in enumerate(self.REGION_WALK):
                h.memory.prefetch_fetch()
                h.llc.insert(blk, prefetch=True)
                h.l2.insert(blk, prefetch=k % 2 == 0)
            if hook == "recorder":
                install_recorder(sim, crrb_entries=2)
            elif hook == "miss-log":
                logs.append(MissLog())
                h.record_hook = logs[-1]

        results = assert_backends_identical(
            [walk_trace(addrs, walks=4)], flush=False, prepare=prepare)
        assert self.sources(results[0]) == {"l2": 12, "l1": 36}
        assert results[0]["stats"]["l2"]["inst_prefetch_hits"] == 6
        assert results[0]["stats"]["memory"]["prefetch_useful"] == 6 * 64
        for log in logs:
            assert log.calls == addrs[::2]

"""Tests for the PIF temporal-streaming baseline."""

import pytest

from repro.core.pif import PIF, PIFParams, pif_ideal_params
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.params import skylake
from repro.units import KB, LINE_SIZE

BASE = 0x5555_0000_0000


def feed(pif, blocks, cycle=0.0):
    for b in blocks:
        pif.on_fetch(BASE + b * LINE_SIZE, cycle)


def record_prefetches(hier):
    """Record every fill PIF schedules into ``hier``'s L1-I, still
    scheduling it."""
    issued = []
    schedule = hier.schedule_l1i_prefetches

    def recording(fills):
        issued.extend(fills)
        schedule(fills)

    hier.schedule_l1i_prefetches = recording
    return issued


class TestParams:
    def test_paper_configuration(self):
        p = PIFParams()
        assert p.index_bytes == 49 * KB
        assert p.stream_bytes == 164 * KB
        assert not p.persistent

    def test_ideal_configuration(self):
        p = pif_ideal_params()
        assert p.persistent
        assert p.index_capacity > 10 ** 6
        assert p.stream_capacity > 10 ** 6


class TestRecording:
    def test_stream_grows(self):
        pif = PIF(PIFParams())
        feed(pif, [1, 2, 3])
        base_block = BASE // LINE_SIZE
        assert pif._stream == [base_block + 1, base_block + 2, base_block + 3]

    def test_consecutive_duplicates_collapsed(self):
        pif = PIF(PIFParams())
        feed(pif, [1, 1, 1, 2])
        assert len(pif._stream) == 2

    def test_stream_capacity_wraps(self):
        params = PIFParams(stream_bytes=7 * 10)  # 10 entries
        pif = PIF(params)
        feed(pif, range(25))
        assert len(pif._stream) <= 10
        # Index positions must remain valid.
        for pos in pif._index.values():
            assert 0 <= pos < len(pif._stream)

    def test_index_capacity_respected(self):
        params = PIFParams(index_bytes=6 * 5)  # 5 entries
        pif = PIF(params)
        feed(pif, range(20))
        assert len(pif._index) <= 5


class TestReplay:
    def test_repeating_pattern_followed(self):
        hier = MemoryHierarchy(skylake())
        pif = PIF(pif_ideal_params(), hier)
        issued = record_prefetches(hier)
        pattern = list(range(50))
        feed(pif, pattern)
        assert not issued  # nothing recorded to follow yet
        feed(pif, pattern)
        # The re-index at block 0 and a match at every later block leave
        # the pointer just past the first recording's last block.
        assert pif._pointer == len(pattern)
        assert issued

    def test_divergence_reindexes_and_squashes(self):
        hier = MemoryHierarchy(skylake())
        pif = PIF(pif_ideal_params(), hier)
        feed(pif, range(30))
        feed(pif, range(10))
        assert pif._pointer == 10 and hier.l1i_fills.pending > 0
        feed(pif, [100, 101, 102])
        assert pif._pointer is None  # diverged, and no stream starts at 100
        assert hier.l1i_fills.pending == 0  # squashed

    def test_non_persistent_flush_clears_state(self):
        pif = PIF(PIFParams())
        feed(pif, range(10))
        pif.flush()
        assert not pif._stream
        assert not pif._index

    def test_persistent_flush_keeps_metadata(self):
        pif = PIF(pif_ideal_params())
        feed(pif, range(10))
        pif.flush()
        assert pif._stream
        assert pif._pointer is None  # pointer is a core register: reset

    def test_index_miss_follows_nothing(self):
        hier = MemoryHierarchy(skylake())
        pif = PIF(PIFParams(), hier)
        issued = record_prefetches(hier)
        feed(pif, [5])  # nothing recorded before it
        assert pif._pointer is None
        assert not issued

    def test_prefetches_not_reissued_for_resident_lines(self):
        hier = MemoryHierarchy(skylake())
        pif = PIF(pif_ideal_params(), hier)
        issued = record_prefetches(hier)
        pattern = list(range(20))
        # Demand-load the pattern so everything is in the L1-I.
        for b in pattern:
            hier.access_instr(BASE + b * LINE_SIZE, 0.0)
        hier.record_hook = pif
        for b in pattern:
            hier.access_instr(BASE + b * LINE_SIZE, 1000.0)
        for b in pattern:
            hier.access_instr(BASE + b * LINE_SIZE, 2000.0)
        assert pif._pointer == len(pattern)  # followed the stream
        assert not issued


class TestEndToEnd:
    def test_pif_between_baseline_and_jukebox(self, tiny_traces):
        """Paper ordering: baseline < PIF <= PIF-ideal < Jukebox."""
        from repro.core.jukebox import Jukebox
        from repro.sim.core import Simulator
        from repro.sim.params import JukeboxParams

        def run_baseline():
            core = Simulator(skylake())
            cycles = 0.0
            for i, trace in enumerate(tiny_traces):
                core.flush_microarch_state()
                r = core.run(trace)
                if i:
                    cycles += r.cycles
            return cycles

        def run_with_pif(params):
            core = Simulator(skylake())
            pif = PIF(params, core.hierarchy)
            core.hierarchy.record_hook = pif
            cycles = 0.0
            for i, trace in enumerate(tiny_traces):
                core.flush_microarch_state()
                pif.flush()
                r = core.run(trace)
                if i:
                    cycles += r.cycles
            return cycles

        def run_with_jukebox():
            core = Simulator(skylake())
            jb = Jukebox(JukeboxParams())
            cycles = 0.0
            for i, trace in enumerate(tiny_traces):
                core.flush_microarch_state()
                jb.begin_invocation(core.hierarchy)
                r = core.run(trace)
                jb.end_invocation(core.hierarchy, r)
                if i:
                    cycles += r.cycles
            return cycles

        base = run_baseline()
        ideal = run_with_pif(pif_ideal_params())
        jukebox = run_with_jukebox()
        assert ideal < base
        assert jukebox < ideal

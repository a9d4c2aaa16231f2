"""The per-process sequence memo behind ``spectrum_point`` cells.

Warm cells share the ``reference`` sequence and lukewarm and cold cells
share ``baseline`` or ``jukebox``, so a function's spectrum simulates at
most three sequences.  These tests pin what makes the sharing invisible
in results: memo-warm cells equal memo-cold ones, the memo is bounded,
its key holds exactly the simulation inputs, and callers cannot write
through a cell into the memo.
"""

import dataclasses
import json

import pytest

from repro.engine.job import canonicalize
from repro.experiments import ext_spectrum
from repro.experiments.common import RunConfig, run_config

_sequence = ext_spectrum._sequence

CFG = RunConfig(invocations=3, warmup=1, seed=5)
TTL_MS = ext_spectrum.DEFAULT_TTL_MS
COLD_MS = 2 * TTL_MS

#: Warm, lukewarm and cold cells, Jukebox off and on, every cold toggle.
CELLS = [dict(iat_ms=iat, jukebox=jb, page_replay=pr, init_trim=it)
         for jb in (False, True)
         for iat, pr, it in ((0.0, False, False), (1_000.0, False, False),
                             (COLD_MS, False, False), (COLD_MS, True, True))]


@pytest.fixture(autouse=True)
def empty_memo():
    _sequence.cache_clear()
    yield
    _sequence.cache_clear()


def canonical_json(value) -> str:
    return json.dumps(canonicalize(value), sort_keys=True,
                      separators=(",", ":"))


def cell(profile, machine, cfg=CFG, **point):
    return run_config(profile, machine, cfg, "spectrum_point", **point)


def test_memo_warm_cells_equal_memo_cold_cells(tiny_profile, tiny_machine):
    cold = []
    for point in CELLS:
        _sequence.cache_clear()
        cold.append(cell(tiny_profile, tiny_machine, **point))
        assert _sequence.cache_info().hits == 0
    _sequence.cache_clear()
    warm = [cell(tiny_profile, tiny_machine, **point) for point in CELLS]
    info = _sequence.cache_info()
    assert (info.misses, info.hits) == (3, len(CELLS) - 3)
    assert canonical_json(warm) == canonical_json(cold)


def test_holds_at_most_three_sequences(tiny_profile, sparse_profile,
                                       tiny_machine):
    assert _sequence.cache_info().maxsize == 3
    for profile in (tiny_profile, sparse_profile, tiny_profile):
        for seed in (1, 2):
            for point in CELLS:
                cell(profile, tiny_machine, CFG.replace(seed=seed), **point)
                assert _sequence.cache_info().currsize <= 3


def _other_machine(machine):
    return dataclasses.replace(machine, name="tiny-wide",
                               l2=dataclasses.replace(machine.l2,
                                                      size=2 * machine.l2.size))


class TestMemoKey:
    BASE = dict(iat_ms=COLD_MS, jukebox=False)

    @pytest.mark.parametrize("change", [
        dict(backend="scalar"),
        dict(seed=CFG.seed + 1),
        dict(instruction_scale=0.5),
    ])
    def test_cfg_changes_miss(self, tiny_profile, tiny_machine, change):
        cell(tiny_profile, tiny_machine, **self.BASE)
        cell(tiny_profile, tiny_machine, CFG.replace(**change), **self.BASE)
        info = _sequence.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    def test_machine_change_misses(self, tiny_profile, tiny_machine):
        cell(tiny_profile, tiny_machine, **self.BASE)
        cell(tiny_profile, _other_machine(tiny_machine), **self.BASE)
        info = _sequence.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    @pytest.mark.parametrize("change", [
        dict(jukebox=True),  # baseline -> jukebox
        dict(iat_ms=0.0),    # baseline -> reference
    ])
    def test_config_changes_miss(self, tiny_profile, tiny_machine, change):
        cell(tiny_profile, tiny_machine, **self.BASE)
        cell(tiny_profile, tiny_machine, **{**self.BASE, **change})
        info = _sequence.cache_info()
        assert (info.misses, info.hits) == (2, 0)

    @pytest.mark.parametrize("change", [
        dict(iat_ms=3 * TTL_MS),
        dict(iat_ms=1_000.0),      # cold -> lukewarm
        dict(ttl_ms=3 * TTL_MS),   # cold -> lukewarm
        dict(page_replay=True),
        dict(init_trim=True),
    ])
    def test_point_options_hit(self, tiny_profile, tiny_machine, change):
        cell(tiny_profile, tiny_machine, **self.BASE)
        cell(tiny_profile, tiny_machine, **{**self.BASE, **change})
        info = _sequence.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_mutating_a_cell_does_not_reach_the_next(tiny_profile,
                                                 tiny_machine):
    point = dict(iat_ms=COLD_MS, jukebox=True)
    first = cell(tiny_profile, tiny_machine, **point)
    expected = canonical_json(first)
    for key in first:
        first[key] = -1
    second = cell(tiny_profile, tiny_machine, **point)
    assert _sequence.cache_info().hits == 1
    assert canonical_json(second) == expected

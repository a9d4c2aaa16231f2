"""The per-process trace memo behind ``make_traces``.

Cells that share generation inputs share one read-only set of traces and
their columnar IR.  These tests pin the three properties that make the
sharing invisible in results: memo-warm cells equal memo-cold ones, the
shared arrays cannot be written, and simulating on a shared set leaves
it equal to a fresh build.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.engine.job import canonicalize
from repro.experiments import ext_spectrum
from repro.experiments.common import (
    RunConfig,
    _trace_set,
    make_model,
    make_traces,
    run_config,
)
from repro.workloads.trace import OP_WALKS, ColumnarTrace, MachineColumns

CFG = RunConfig(invocations=3, warmup=1, seed=5)
FIG10_CONFIGS = ("baseline", "jukebox", "perfect")
COLD_POINT = dict(iat_ms=2 * ext_spectrum.DEFAULT_TTL_MS, jukebox=True,
                  page_replay=True, init_trim=True)


@pytest.fixture(autouse=True)
def empty_memo():
    # The spectrum's sequence memo sits above this one: a hit there
    # would skip the trace-memo lookup these tests count.
    ext_spectrum._sequence.cache_clear()
    _trace_set.cache_clear()
    yield
    ext_spectrum._sequence.cache_clear()
    _trace_set.cache_clear()


def canonical_json(value) -> str:
    return json.dumps(canonicalize(value), sort_keys=True,
                      separators=(",", ":"))


def run_cells(profile, machine):
    cells = [run_config(profile, machine, CFG, name)
             for name in FIG10_CONFIGS]
    cells.append(run_config(profile, machine, CFG, "spectrum_point",
                            **COLD_POINT))
    return cells


def ir_arrays(ct: ColumnarTrace):
    """Every array the IR holds, its per-machine column caches included."""
    for f in dataclasses.fields(ct):
        value = getattr(ct, f.name)
        if isinstance(value, np.ndarray):
            yield f"ir.{f.name}", value
    for key, cols in ct._machine_columns.items():
        for name in MachineColumns.__slots__:
            value = getattr(cols, name)
            if isinstance(value, np.ndarray):
                yield f"ir.machine{key}.{name}", value


def comparable_ir(ct: ColumnarTrace):
    """The IR's columns, list copies, loops and op program as plain data."""
    data = {}
    for f in dataclasses.fields(ct):
        value = getattr(ct, f.name)
        if isinstance(value, np.ndarray):
            data[f.name] = (value.dtype.str, value.tolist())
        elif f.name.endswith("_list") or f.name in ("loops", "instr_total"):
            data[f.name] = value
    # A walk op carries its WalkPattern object; compare the pattern's
    # addresses, from which everything else in it is derived.
    data["ops"] = [op[:4] + (op[4].addrs,) if op[0] == OP_WALKS else op
                   for op in ct.ops]
    return data


def comparable_columns(cols: MachineColumns):
    data = {}
    for name in MachineColumns.__slots__:
        if name.startswith("_"):
            continue  # private memo of derived lists, filled on demand
        value = getattr(cols, name)
        data[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return data


class TestMemoIsInvisible:
    def test_memo_warm_cells_equal_memo_cold_cells(self, tiny_profile,
                                                   tiny_machine):
        cold = []
        for name in FIG10_CONFIGS:
            _trace_set.cache_clear()
            cold.append(run_config(tiny_profile, tiny_machine, CFG, name))
        _trace_set.cache_clear()
        ext_spectrum._sequence.cache_clear()
        cold.append(run_config(tiny_profile, tiny_machine, CFG,
                               "spectrum_point", **COLD_POINT))

        _trace_set.cache_clear()
        ext_spectrum._sequence.cache_clear()
        warm = run_cells(tiny_profile, tiny_machine)
        info = _trace_set.cache_info()
        assert (info.misses, info.hits) == (1, len(warm) - 1)
        assert canonical_json(warm) == canonical_json(cold)

    def test_shared_set_equals_a_fresh_build_after_simulation(
            self, tiny_profile, tiny_machine):
        shared = make_traces(tiny_profile, CFG)
        run_cells(tiny_profile, tiny_machine)
        assert make_traces(tiny_profile, CFG) == shared  # same objects
        model = make_model(tiny_profile, CFG)
        for i, trace in enumerate(shared):
            fresh = model.invocation_trace(i)
            for name in ("kinds", "addrs", "args", "args2"):
                assert np.array_equal(getattr(trace, name),
                                      getattr(fresh, name)), name
            assert trace.loops == fresh.loops
            ct = trace.columnar()
            fresh_ct = ColumnarTrace.from_trace(fresh)
            assert comparable_ir(ct) == comparable_ir(fresh_ct)
            assert ct._machine_columns, "simulation built no machine columns"
            for key, cols in ct._machine_columns.items():
                assert comparable_columns(cols) == comparable_columns(
                    fresh_ct.machine_columns(*key))


class TestMemoIsReadOnly:
    def test_writing_any_trace_or_ir_array_raises(self, tiny_profile,
                                                  tiny_machine):
        run_config(tiny_profile, tiny_machine, CFG, "baseline")
        for trace in make_traces(tiny_profile, CFG):
            arrays = [(name, getattr(trace, name))
                      for name in ("kinds", "addrs", "args", "args2")]
            arrays.extend(ir_arrays(trace.columnar()))
            assert any(name.startswith("ir.machine") for name, _ in arrays)
            for name, array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = array
                assert not array.flags.writeable, name

    def test_callers_get_their_own_list(self, tiny_profile):
        first = make_traces(tiny_profile, CFG)
        first.clear()
        assert len(make_traces(tiny_profile, CFG)) == CFG.invocations


class TestMemoKey:
    @pytest.mark.parametrize("change", [
        dict(seed=CFG.seed + 1),
        dict(instruction_scale=0.5),
        dict(invocations=CFG.invocations + 1),
    ])
    def test_generation_inputs_miss(self, tiny_profile, change):
        make_traces(tiny_profile, CFG)
        make_traces(tiny_profile, CFG.replace(**change))
        assert _trace_set.cache_info().misses == 2
        assert _trace_set.cache_info().hits == 0

    def test_profile_misses(self, tiny_profile, sparse_profile):
        make_traces(tiny_profile, CFG)
        make_traces(sparse_profile, CFG)
        assert _trace_set.cache_info().misses == 2

    @pytest.mark.parametrize("change", [
        dict(backend="scalar"),
        dict(warmup=CFG.warmup + 1),
    ])
    def test_backend_and_warmup_hit(self, tiny_profile, change):
        first = make_traces(tiny_profile, CFG)
        assert make_traces(tiny_profile, CFG.replace(**change)) == first
        assert _trace_set.cache_info().hits == 1

    def test_holds_at_most_one_set(self, tiny_profile, sparse_profile):
        for profile in (tiny_profile, sparse_profile, tiny_profile):
            for seed in (1, 2):
                make_traces(profile, CFG.replace(seed=seed))
                assert _trace_set.cache_info().currsize <= 1
        assert _trace_set.cache_info().maxsize == 1

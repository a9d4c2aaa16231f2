"""The stable ``repro.sim.simulate()`` facade and the backend plumbing.

The API contract: ``simulate()`` is the single public entry point for
executing a trace, and ``Simulator(backend=...)`` carries warm state.
"""

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments.common import RunConfig
from repro.sim import BACKENDS, simulate
from repro.sim.core import Simulator
from repro.sim.params import skylake
from repro.workloads import TraceBuilder


def small_trace():
    b = TraceBuilder()
    b.extend_walk(range(0, 64 * 40, 64), insts_per_block=10)
    b.load(1 << 20, count=4)
    b.store((1 << 20) + 64)
    b.branch_site(0x400100, executions=30, taken_prob=0.7)
    return b.build()


class TestSimulateFacade:
    def test_machine_only_builds_cold_simulator(self):
        result = simulate(small_trace(), skylake())
        assert result.instructions > 0
        assert result.cycles > 0

    def test_explicit_backend_accepted(self):
        trace = small_trace()
        cols = simulate(trace, skylake(), backend="columnar")
        scal = simulate(trace, skylake(), backend="scalar")
        assert cols.cycles == scal.cycles

    def test_sim_reuse_keeps_warm_state(self):
        trace = small_trace()
        sim = Simulator(skylake())
        first = simulate(trace, sim=sim)
        second = simulate(trace, sim=sim)
        assert second.cycles < first.cycles  # warm caches

    def test_sim_plus_machine_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            simulate(small_trace(), skylake(), sim=Simulator(skylake()))

    def test_sim_plus_conflicting_backend_rejected(self):
        sim = Simulator(skylake(), backend="columnar")
        with pytest.raises(ConfigurationError, match="conflicts"):
            simulate(small_trace(), sim=sim, backend="scalar")

    def test_sim_plus_matching_backend_accepted(self):
        sim = Simulator(skylake(), backend="scalar")
        result = simulate(small_trace(), sim=sim, backend="scalar")
        assert result.instructions > 0

    def test_neither_machine_nor_sim_rejected(self):
        with pytest.raises(ConfigurationError, match="machine= or sim="):
            simulate(small_trace())

    def test_exported_from_package_root(self):
        assert repro.simulate is simulate
        assert repro.Simulator is Simulator
        assert repro.TraceBuilder is TraceBuilder


class TestBackendSelection:
    def test_default_backend_is_columnar(self):
        assert Simulator(skylake()).backend == "columnar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown simulation"):
            Simulator(skylake(), backend="simd")

    def test_backends_registry(self):
        assert BACKENDS == ("columnar", "scalar")

    def test_runconfig_carries_backend(self):
        assert RunConfig().backend == "columnar"
        assert RunConfig(backend="scalar").backend == "scalar"

    def test_runconfig_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown simulation"):
            RunConfig(backend="simd")

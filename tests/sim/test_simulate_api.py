"""``Simulator.run`` and the backend plumbing.

The API contract: ``Simulator(machine, backend=...).run(trace)`` executes
a trace, and the simulator carries warm state from one run to the next.
"""

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments.common import RunConfig
from repro.sim import BACKENDS
from repro.sim.core import Simulator
from repro.sim.params import skylake
from repro.workloads import TraceBuilder


def small_trace():
    b = TraceBuilder()
    for addr in range(0, 64 * 40, 64):
        b.fetch(addr, insts=10, taken_branches=1)
    b.load(1 << 20, count=4)
    b.store((1 << 20) + 64)
    b.branch_site(0x400100, executions=30, taken_prob=0.7)
    return b.build()


class TestSimulatorRun:
    def test_machine_only_builds_cold_simulator(self):
        result = Simulator(skylake()).run(small_trace())
        assert result.instructions > 0
        assert result.cycles > 0

    def test_explicit_backend_accepted(self):
        trace = small_trace()
        cols = Simulator(skylake(), backend="columnar").run(trace)
        scal = Simulator(skylake(), backend="scalar").run(trace)
        assert cols.cycles == scal.cycles

    def test_sim_reuse_keeps_warm_state(self):
        trace = small_trace()
        sim = Simulator(skylake())
        first = sim.run(trace)
        second = sim.run(trace)
        assert second.cycles < first.cycles  # warm caches

    def test_exported_from_package_root(self):
        assert repro.Simulator is Simulator
        assert repro.TraceBuilder is TraceBuilder
        assert not hasattr(repro, "simulate")


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

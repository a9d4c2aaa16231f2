"""Shared fixtures: small machines and workloads that keep tests fast."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the golden figure snapshots under tests/golden/ "
             "instead of comparing against them (commit the diff and "
             "explain the model change in the PR)")
    parser.addoption(
        "--full-trace-matrix", action="store_true", default=False,
        help="run the walk-plan differential over the whole trace digest "
             "matrix, both instruction scales (default: the 0.35 half)")


@pytest.fixture
def update_golden(request) -> bool:
    """Whether this run should rewrite golden snapshots, not compare."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def full_trace_matrix(request) -> bool:
    """Whether matrix differentials cover both instruction scales."""
    return request.config.getoption("--full-trace-matrix")


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path_factory, monkeypatch):
    """Point the CLI's default result cache at a fresh directory per test.

    A ``main([...])`` call with neither ``--cache-dir`` nor ``--no-cache``
    opens the default cache; without this it would land in the user's
    ``~/.cache``.  Child interpreters inherit the variable.
    """
    path = tmp_path_factory.mktemp("default-cache")
    monkeypatch.setenv("LUKEWARM_CACHE_DIR", str(path))
    return path

from repro.experiments.common import RunConfig
from repro.sim.params import (
    CacheParams,
    JukeboxParams,
    MachineParams,
    MemoryParams,
    TLBParams,
    core_params_for_mode,
    MODE_EVALUATION,
    skylake,
    broadwell,
)
from repro.units import KB, MB
from repro.workloads.function import FunctionModel
from repro.workloads.profiles import FunctionProfile, LANG_GO, LANG_PYTHON


@pytest.fixture(scope="session")
def skylake_machine() -> MachineParams:
    return skylake()


@pytest.fixture(scope="session")
def broadwell_machine() -> MachineParams:
    return broadwell()


@pytest.fixture(scope="session")
def tiny_machine() -> MachineParams:
    """A scaled-down machine: tiny caches so capacity effects appear with
    tiny workloads, keeping unit tests fast."""
    return MachineParams(
        name="tiny",
        core=core_params_for_mode(MODE_EVALUATION),
        l1i=CacheParams("L1I", size=4 * KB, assoc=4, latency=4, mshrs=4),
        l1d=CacheParams("L1D", size=4 * KB, assoc=4, latency=8, mshrs=4),
        l2=CacheParams("L2", size=64 * KB, assoc=8, latency=20, mshrs=8),
        llc=CacheParams("LLC", size=512 * KB, assoc=16, latency=30, mshrs=8),
        itlb=TLBParams("ITLB", entries=32, assoc=4),
        dtlb=TLBParams("DTLB", entries=32, assoc=4),
        memory=MemoryParams(),
        jukebox=JukeboxParams(metadata_bytes=4 * KB),
    )


@pytest.fixture(scope="session")
def tiny_profile() -> FunctionProfile:
    """A small function whose invocations simulate in milliseconds."""
    return FunctionProfile(
        name="TinyService",
        abbrev="Tiny-G",
        language=LANG_GO,
        application="Test",
        footprint_kb=96,
        instructions=60_000,
        data_ws_kb=24,
        density=0.8,
        loopiness=0.3,
        phases=3,
        branch_sites=120,
    )


@pytest.fixture(scope="session")
def sparse_profile() -> FunctionProfile:
    """A Python-like sparse function for metadata-size tests."""
    return FunctionProfile(
        name="SparseService",
        abbrev="Sparse-P",
        language=LANG_PYTHON,
        application="Test",
        footprint_kb=160,
        instructions=90_000,
        data_ws_kb=48,
        density=0.5,
        loopiness=0.25,
        phases=4,
        branch_sites=160,
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_profile) -> FunctionModel:
    return FunctionModel(tiny_profile, seed=7)


@pytest.fixture(scope="session")
def tiny_traces(tiny_model):
    return [tiny_model.invocation_trace(i) for i in range(4)]


@pytest.fixture(scope="session")
def fast_cfg() -> RunConfig:
    return RunConfig(invocations=3, warmup=1, instruction_scale=1.0)

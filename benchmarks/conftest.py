"""Shared benchmark infrastructure.

Every benchmark regenerates one paper table/figure at reduced scale
(``RunConfig.fast()``) and prints the same rows/series the paper reports,
so ``pytest benchmarks/ --benchmark-only -s`` doubles as a reproduction
report.  Rendered outputs are also written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import engine
from repro.experiments.common import RunConfig
from repro.experiments.paper_bands import BANDS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def bench_engine_context():
    """Route benchmark sweeps through the engine, cache disabled.

    Caching would turn every benchmark after the first run into a
    cache-hit measurement; ``BENCH_JOBS`` opts into parallel sweeps
    (results are bit-identical either way).
    """
    jobs = int(os.environ.get("BENCH_JOBS", "1"))
    with engine.configure(jobs=jobs) as ctx:
        yield ctx


@pytest.fixture(scope="session")
def bench_cfg() -> RunConfig:
    """Benchmark config: full-scale invocations, a reduced invocation
    count (the paper simulates 20; four suffice for stable means)."""
    return RunConfig(invocations=4, warmup=1, instruction_scale=1.0)


@pytest.fixture(scope="session")
def fig2_result(bench_cfg):
    """Shared Fig. 2 sweep: Figs. 3 and 4 are derived from the same runs,
    exactly as in the paper."""
    from repro.experiments import fig02_topdown
    return fig02_topdown.run(bench_cfg)


@pytest.fixture(scope="session")
def report():
    """Print a rendered experiment report and persist it to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, rendered: str) -> None:
        print(f"\n{rendered}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")

    return _report


def assert_in_band(key: str, measured: float) -> None:
    """Assert a measured quantity lies in its declared band,
    :data:`repro.experiments.paper_bands.BANDS` ``[key]`` -- the one
    place a headline number's acceptance range is written down -- and
    print the verdict beside the rendered report."""
    band = BANDS[key]
    print(f"band {key}: {band.describe(measured)}")
    assert band.check(measured), band.describe(measured)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-experiment benchmark exactly once (they are minutes-long
    at full scale; variance across rounds is not the quantity of interest)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)

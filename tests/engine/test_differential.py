"""Differential equivalence: every execution mode yields identical bytes.

One grid of deterministic cells (``diff_numeric`` from the fake provider)
is swept serially, through a two-worker process pool, against a warm
cache, and through a retry-after-injected-fault schedule.  All four must
produce *byte-identical* canonical JSON -- the engine's core promise that
how a sweep executes can never change what it computes.
"""

from __future__ import annotations

import json

import pytest

import tests.engine.fake_provider  # noqa: F401  (registers diff_numeric)
from repro.engine import FailurePolicy, configure, sweep
from repro.engine.job import Job
from repro.experiments.common import RunConfig
from repro.workloads.suite import suite_subset

PROVIDER = "tests.engine.fake_provider"
CFG = RunConfig(invocations=2, warmup=1, seed=11)
SCALES = (0.5, 1.0, 2.0)


def grid_jobs():
    """The shared (profile x scale) grid: 2 functions x 3 scales."""
    profiles = suite_subset(["Auth-G", "ProdL-G"])
    return [Job.make(p, None, CFG, "diff_numeric", provider=PROVIDER,
                     scale=s)
            for p in profiles for s in SCALES]


def canonical(results) -> str:
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def serial_bytes() -> str:
    """The serial-run oracle every other mode must match byte-for-byte."""
    with configure():
        return canonical(sweep(grid_jobs()))


def test_pool_matches_serial(serial_bytes):
    with configure(jobs=2):
        pooled = canonical(sweep(grid_jobs()))
    assert pooled == serial_bytes


def test_warm_cache_matches_serial(serial_bytes, tmp_path):
    with configure(cache_dir=tmp_path / "cache") as ctx:
        cold = canonical(sweep(grid_jobs()))
        warm = canonical(sweep(grid_jobs()))
        assert ctx.stats.hits == len(grid_jobs())
    assert cold == serial_bytes
    assert warm == serial_bytes


def test_retry_after_injected_fault_matches_serial(serial_bytes):
    with configure(faults="fail:#2",
                   policy=FailurePolicy(retries=1)) as ctx:
        retried = canonical(sweep(grid_jobs()))
        assert ctx.stats.retries == 1
    assert retried == serial_bytes


def test_pool_after_fault_with_cache_matches_serial(serial_bytes, tmp_path):
    """The modes compose: pooled + cached + fault-retried is still exact."""
    with configure(jobs=2, cache_dir=tmp_path / "cache", faults="fail:#1",
                   policy=FailurePolicy(retries=1)):
        combined = canonical(sweep(grid_jobs()))
    assert combined == serial_bytes


def test_backends_never_share_cache_entries(tmp_path):
    """A columnar-keyed sweep must not warm the cache for a scalar-keyed
    one (the stale-cache regression for the backend field) -- while both
    still produce byte-identical payloads."""
    profile = suite_subset(["Auth-G"])[0]
    machine_cfg = RunConfig(invocations=2, warmup=1, seed=3,
                            instruction_scale=0.05)
    from repro.sim.params import skylake

    from repro.engine.job import canonicalize

    def jobs(backend):
        return [Job.make(profile, skylake(),
                         machine_cfg.replace(backend=backend), "baseline")]

    def run(backend):
        return canonical([canonicalize(r) for r in sweep(jobs(backend))])

    with configure(cache_dir=tmp_path / "cache") as ctx:
        columnar = run("columnar")
        assert ctx.stats.hits == 0
        scalar = run("scalar")
        assert ctx.stats.hits == 0  # scalar key missed the columnar entry
        again = run("scalar")
        assert ctx.stats.hits == 1  # same-backend re-run does hit
    assert columnar == scalar == again

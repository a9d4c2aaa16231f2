"""End-to-end: whole experiments through the engine, parallel and cached.

The acceptance bar for the engine is *bit-identical rendered reports*:
``--jobs 4`` and a warm cache must change wall-clock only, never a single
character of what the paper tables say.
"""

from __future__ import annotations

import pytest

from repro import engine
from repro.experiments import fig05_mpki, fig10_speedup
from repro.experiments.common import RunConfig

CFG = RunConfig(invocations=3, warmup=1, instruction_scale=0.15)
FUNCTIONS = ["Auth-G", "Email-P"]

EXPERIMENTS = [
    pytest.param(fig10_speedup, id="fig10"),
    pytest.param(fig05_mpki, id="fig05"),
]


@pytest.mark.parametrize("module", EXPERIMENTS)
def test_parallel_report_is_bit_identical_to_serial(module):
    serial = module.render(module.run(CFG, functions=FUNCTIONS))
    with engine.configure(jobs=4):
        parallel = module.render(module.run(CFG, functions=FUNCTIONS))
    assert parallel == serial


@pytest.mark.parametrize("module", EXPERIMENTS)
def test_warm_cache_skips_all_simulation(module, tmp_path):
    with engine.configure(cache_dir=tmp_path / "cache") as ctx:
        cold = module.render(module.run(CFG, functions=FUNCTIONS))
        cells = ctx.stats.misses
        assert cells > 0
        before = ctx.stats.snapshot()
        warm = module.render(module.run(CFG, functions=FUNCTIONS))
        delta = ctx.stats.since(before)
    assert warm == cold
    assert delta.misses == 0
    assert delta.hits == cells == delta.jobs


def test_parallel_and_cache_compose(tmp_path):
    """--jobs 4 populates the cache; a serial rerun reads it back."""
    with engine.configure(jobs=4, cache_dir=tmp_path / "cache"):
        first = fig10_speedup.render(
            fig10_speedup.run(CFG, functions=FUNCTIONS))
    with engine.configure(jobs=1, cache_dir=tmp_path / "cache") as ctx:
        second = fig10_speedup.render(
            fig10_speedup.run(CFG, functions=FUNCTIONS))
        assert ctx.stats.misses == 0
    assert second == first

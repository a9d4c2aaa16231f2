"""Golden-trace regression tests: figure outputs pinned as canonical JSON.

Each golden file under ``tests/golden/`` is the canonical-JSON dump of one
figure experiment's ``run()`` result on the two smallest workload
profiles (Auth-G and ProdL-G by instruction count) at a reduced scale.
The comparison is *byte-exact*: any change to the simulator's arithmetic,
iteration order, or defaults shows up as a diff here before it can
silently move a paper figure.

Intentional model changes: rerun with ``--update-golden``::

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --update-golden

then commit the regenerated snapshots and describe the model change in
the PR (the diff *is* the review artifact).  See EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import (fig02_topdown, fig05_mpki, fig06_footprints,
                               fig10_speedup, fig13_pif)
from repro.experiments.common import RunConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The two smallest profiles in the suite by instruction count.
GOLDEN_FUNCTIONS = ("Auth-G", "ProdL-G")

#: Reduced scale: small enough to run in seconds, large enough that every
#: simulator subsystem (caches, TLBs, prefetcher, Top-Down) contributes.
GOLDEN_CFG = RunConfig(invocations=3, warmup=1, seed=1,
                       instruction_scale=0.25)

FIGURES = {
    "fig02_topdown": fig02_topdown,
    "fig05_mpki": fig05_mpki,
    "fig06_footprints": fig06_footprints,
    "fig10_speedup": fig10_speedup,
    "fig13_pif": fig13_pif,
}


def canonical_json(result) -> str:
    """Canonical JSON for a figure result dataclass: sorted keys, indented,
    trailing newline -- byte-stable for identical float values."""
    payload = dataclasses.asdict(result)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_matches_golden(name, update_golden):
    module = FIGURES[name]
    result = module.run(GOLDEN_CFG, functions=list(GOLDEN_FUNCTIONS))
    actual = canonical_json(result)
    golden_path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(actual, encoding="utf-8")
        pytest.skip(f"golden snapshot {golden_path.name} regenerated")
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; generate it with "
        f"pytest --update-golden and commit it")
    expected = golden_path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{name} output drifted from its golden snapshot. If this model "
        f"change is intentional, rerun with --update-golden and commit "
        f"the regenerated {golden_path.name}; otherwise the simulator's "
        f"determinism broke.")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_golden_snapshot_is_canonical(name):
    """The committed snapshots themselves round-trip canonically, so a
    hand edit (or a non-canonical rewrite) fails even without rerunning
    the simulator."""
    golden_path = GOLDEN_DIR / f"{name}.json"
    text = golden_path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_golden_runs_are_deterministic():
    """Two in-process runs of the same figure produce identical bytes --
    the precondition that makes byte-exact goldens fair to enforce."""
    first = canonical_json(
        fig05_mpki.run(GOLDEN_CFG, functions=list(GOLDEN_FUNCTIONS)))
    second = canonical_json(
        fig05_mpki.run(GOLDEN_CFG, functions=list(GOLDEN_FUNCTIONS)))
    assert first == second

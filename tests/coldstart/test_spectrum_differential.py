"""Differential battery: the cold-start refactor against its ground truths.

Three families of pins, per the spectrum issue:

* **Legacy byte-identity** -- the constant-penalty
  :class:`~repro.coldstart.model.ColdStartModel` must reproduce, byte
  for byte, the canonical JSON the scalar ``cold_start_penalty_ms``
  arithmetic produced *before* the refactor, for the server simulator
  and the fleet, on three seeds.  The expected strings live in
  ``data/prerefactor.json``, captured at the last pre-refactor commit by
  ``capture_prerefactor.py`` -- they are history, not a fixture this
  suite may regenerate.
* **Lukewarm convergence** -- as invocation frequency rises into the
  keep-alive window, a spectrum cell is *exactly* today's lukewarm
  simulation: same cycles, same instructions, byte-identical canonical
  JSON against the registry's ``baseline``/``jukebox``/``reference``
  configs.
* **Replay beats recording** -- restoring twice, the second (replayed)
  restore's page cost is strictly below the first (recording) restore,
  for every profile in the suite.
"""

import json
from pathlib import Path

import pytest

import repro.experiments.ext_spectrum  # noqa: F401  (registers spectrum_point)
from repro import engine
from repro.coldstart import PageReplayState, working_set_pages
from repro.experiments.common import RunConfig, run_config
from repro.sim.params import skylake
from repro.workloads.suite import SUITE, get_profile

from tests.coldstart import capture_prerefactor as cap

DATA_PATH = Path(__file__).parent / "data" / "prerefactor.json"

SEEDS = cap.SEEDS
SCENARIOS = ("server_enforced", "fleet")


def canonical(value) -> str:
    return json.dumps(engine.canonicalize(value), sort_keys=True,
                      separators=(",", ":"))


@pytest.fixture(scope="module")
def prerefactor():
    return json.loads(DATA_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_constant_model_is_byte_identical_to_scalar_path(
        seed, scenario, prerefactor):
    """Replay the capture script's scenarios on the refactored code and
    compare against the frozen pre-refactor canonical JSON."""
    if scenario == "server_enforced":
        actual = cap.canonical(
            cap.server_stats_dict(cap.run_server_enforced(seed)))
    else:
        actual = cap.canonical(cap.run_fleet(seed))
    assert actual == prerefactor[str(seed)][scenario], (
        f"{scenario} (seed {seed}) drifted from the pre-refactor scalar "
        f"cold_start_penalty_ms path -- the constant ColdStartModel is "
        f"no longer a byte-identical replacement")


# ---------------------------------------------------------------------------
# Lukewarm convergence: high-frequency spectrum cells ARE today's
# lukewarm results.

CONV_CFG = RunConfig(invocations=3, warmup=1, seed=1, instruction_scale=0.25)
CONV_FUNCTIONS = ("Auth-G", "ProdL-G")


def _cycle_sig(seq) -> str:
    """The simulated sequence's identity: exact cycles + instructions."""
    return canonical({
        "cycles": [r.cycles for r in seq.results],
        "instructions": [r.instructions for r in seq.results],
    })


@pytest.mark.parametrize("abbrev", CONV_FUNCTIONS)
def test_high_frequency_converges_to_lukewarm_baseline(abbrev):
    machine = skylake()
    profile = get_profile(abbrev)
    lukewarm = run_config(profile, machine, CONV_CFG, "baseline")
    for iat_ms in (1.0, 1_000.0, 60_000.0):  # frequency -> infinity
        cell = run_config(profile, machine, CONV_CFG, "spectrum_point",
                          iat_ms=iat_ms, ttl_ms=600_000.0)
        assert cell["regime"] == "lukewarm"
        assert canonical(cell["cycles"]) == canonical(lukewarm.cycles)
        assert cell["instructions"] == lukewarm.instructions
        assert cell["init_ms"] == 0.0 and cell["page_ms"] == 0.0


@pytest.mark.parametrize("abbrev", CONV_FUNCTIONS)
def test_lukewarm_jukebox_cell_matches_jukebox_config(abbrev):
    machine = skylake()
    profile = get_profile(abbrev)
    jb = run_config(profile, machine, CONV_CFG, "jukebox")
    cell = run_config(profile, machine, CONV_CFG, "spectrum_point",
                      iat_ms=1_000.0, ttl_ms=600_000.0, jukebox=True)
    assert canonical(cell["cycles"]) == canonical(jb.cycles)
    assert cell["instructions"] == jb.instructions


def test_back_to_back_cell_matches_reference_config():
    machine = skylake()
    profile = get_profile("ProdL-G")
    ref = run_config(profile, machine, CONV_CFG, "reference")
    cell = run_config(profile, machine, CONV_CFG, "spectrum_point",
                      iat_ms=0.0)
    assert cell["regime"] == "warm"
    assert canonical(cell["cycles"]) == canonical(ref.cycles)
    assert cell["instructions"] == ref.instructions


# ---------------------------------------------------------------------------
# Restore-twice: replay strictly below the recording restore.

@pytest.mark.parametrize("profile", SUITE, ids=lambda p: p.abbrev)
def test_replayed_restore_strictly_cheaper_than_first(profile):
    state = PageReplayState(pages=working_set_pages(profile))
    first = state.restore()
    second = state.restore()
    assert first.recorded and not second.recorded
    assert second.page_ms < first.page_ms


def test_cold_cell_reports_replay_below_first_restore():
    machine = skylake()
    profile = get_profile("ProdL-G")
    cell = run_config(profile, machine, CONV_CFG, "spectrum_point",
                      iat_ms=1_800_000.0, ttl_ms=600_000.0,
                      page_replay=True)
    assert cell["regime"] == "cold"
    assert cell["replay_page_ms"] < cell["first_restore_page_ms"]
    assert cell["prefetched_pages"] > 0

"""Differential battery: the cold-start refactor against its ground truths.

Four families of pins:

* **Legacy byte-identity** -- the server's scalar
  ``ServerConfig.cold_start_ms`` charge must reproduce, byte for byte,
  the canonical JSON the scalar ``cold_start_penalty_ms`` arithmetic
  produced *before* the refactor, for the server simulator and the
  fleet, on three seeds.  The expected strings live in
  ``data/prerefactor.json``, captured at the last pre-refactor commit by
  ``capture_prerefactor.py`` -- they are history, not a fixture this
  suite may regenerate.
* **Lukewarm convergence** -- as invocation frequency rises into the
  keep-alive window, a spectrum cell is *exactly* today's lukewarm
  simulation: same cycles, same instructions, byte-identical canonical
  JSON against the registry's ``baseline``/``jukebox``/``reference``
  configs.
* **Cold reuse** -- a cold cell executes the lukewarm sequence.  The
  oracle boots every invocation from a snapshot: flush, restore a
  Jukebox from the snapshot's metadata image, simulate, capture the
  image again.  Its measured invocations must equal the ``baseline`` /
  ``jukebox`` configs' byte for byte.
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
from repro.experiments.common import RunConfig, make_traces, run_config
from repro.sim.core import Simulator
from repro.sim.params import skylake
from repro.workloads.suite import SUITE, get_profile

from tests.coldstart import capture_prerefactor as cap
from tests.jukebox.snapshot_oracle import InstanceSnapshot

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
        f"cold_start_penalty_ms path -- the server's cold_start_ms charge "
        f"is no longer a byte-identical replacement")


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
# Cold reuse: a per-invocation snapshot-boot loop is the oracle.

COLD_CFG = RunConfig(invocations=3, warmup=1, instruction_scale=0.05)
COLD_CASES = ([(p.abbrev, 1) for p in SUITE]
              + [(abbrev, 4242) for abbrev in ("Auth-G", "ProdL-G", "Fib-P")])


def cold_boot_sequence(profile, machine, cfg, jukebox):
    """Every invocation boots from a snapshot: flushed microarchitectural
    state and, under Jukebox, a replayer restored from the metadata image
    the previous invocation captured (:class:`InstanceSnapshot`)."""
    state = InstanceSnapshot(
        PageReplayState(pages=working_set_pages(profile)))
    sim = Simulator(machine, backend=cfg.backend)
    measured = []
    for i, trace in enumerate(make_traces(profile, cfg)):
        sim.flush_microarch_state()
        jb = state.restore_jukebox(machine.jukebox) if jukebox else None
        if jb is not None:
            jb.begin_invocation(sim.hierarchy)
        result = sim.run(trace)
        if jb is not None:
            jb.end_invocation(sim.hierarchy, result)
            state.capture_metadata(jb)
        if i >= cfg.warmup:
            measured.append(result)
    return measured


@pytest.mark.parametrize("jukebox", [False, True], ids=["base", "jb"])
@pytest.mark.parametrize("abbrev,seed", COLD_CASES,
                         ids=[f"{a}-s{s}" for a, s in COLD_CASES])
def test_cold_boot_sequence_is_the_lukewarm_sequence(abbrev, seed, jukebox):
    machine = skylake()
    profile = get_profile(abbrev)
    cfg = COLD_CFG.replace(seed=seed)
    oracle = cold_boot_sequence(profile, machine, cfg, jukebox)
    seq = run_config(profile, machine, cfg,
                     "jukebox" if jukebox else "baseline")
    assert canonical(oracle) == canonical(seq.results)


@pytest.mark.parametrize("jukebox", [False, True], ids=["base", "jb"])
@pytest.mark.parametrize("abbrev", CONV_FUNCTIONS)
def test_cold_cell_matches_lukewarm_sequence(abbrev, jukebox):
    """The convergence family's cold case, at the cheaper cold scale."""
    machine = skylake()
    profile = get_profile(abbrev)
    seq = run_config(profile, machine, COLD_CFG,
                     "jukebox" if jukebox else "baseline")
    cell = run_config(profile, machine, COLD_CFG, "spectrum_point",
                      iat_ms=1_800_000.0, ttl_ms=600_000.0,
                      jukebox=jukebox, page_replay=True, init_trim=True)
    assert cell["regime"] == "cold"
    assert cell["invocations"] == len(seq.results)
    assert canonical(cell["cycles"]) == canonical(seq.cycles)
    assert cell["instructions"] == seq.instructions


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

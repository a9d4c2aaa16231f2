"""Golden fleet-trace snapshot: one region result pinned byte-exactly.

Same contract as ``tests/test_golden_figures.py``: the canonical-JSON
dump of one small region run is committed under ``tests/golden/`` and
compared byte-for-byte.  Any change to the fleet's planning, seeding,
node simulation, or aggregation arithmetic surfaces as a diff here
before it can silently move the ext_fleet numbers.  Regenerate an
intentional change with ``--update-golden`` and commit the diff.
"""

import json
from pathlib import Path

from repro.fleet.config import FleetConfig
from repro.fleet.region import simulate_region

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fleet_region.json"

#: Small enough to simulate in well under a second, rich enough to cover
#: Zipf allotment, round-robin placement, evictions (a 30-minute window
#: at a 5-minute mean IAT outlasts the 10-minute keep-alive), and the
#: Jukebox scale.
GOLDEN_CFG = FleetConfig(nodes=3, instances=90, functions=12,
                         duration_ms=1_800_000.0, mean_iat_ms=300_000.0,
                         jukebox=True, seed=2022)


def canonical_json(result) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def test_region_matches_golden(update_golden):
    actual = canonical_json(simulate_region(GOLDEN_CFG, shards=3))
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(actual, encoding="utf-8")
        import pytest
        pytest.skip("golden snapshot fleet_region.json regenerated")
    assert GOLDEN_PATH.exists(), (
        "missing golden snapshot tests/golden/fleet_region.json; generate "
        "it with pytest --update-golden and commit it")
    expected = GOLDEN_PATH.read_text(encoding="utf-8")
    assert actual == expected, (
        "fleet region output drifted from its golden snapshot. If this "
        "model change is intentional, rerun with --update-golden and "
        "commit the regenerated fleet_region.json; otherwise fleet "
        "determinism broke.")


def test_golden_snapshot_is_canonical():
    text = GOLDEN_PATH.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_golden_run_is_deterministic():
    a = canonical_json(simulate_region(GOLDEN_CFG, shards=3))
    b = canonical_json(simulate_region(GOLDEN_CFG, shards=1))
    assert a == b

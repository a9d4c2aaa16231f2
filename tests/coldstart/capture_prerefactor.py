"""Regenerate the pre-refactor ground-truth snapshots (maintainers only).

The differential battery in ``test_spectrum_differential.py`` asserts
that the server's scalar ``ServerConfig.cold_start_ms`` charge
reproduces, byte-for-byte, what the scalar ``cold_start_penalty_ms``
arithmetic produced *before* the cold-start refactor.  The committed
``data/prerefactor.json`` was captured by running this script at the
last pre-refactor commit; it must never be regenerated from post-
refactor code (that would make the comparison vacuous).  The script is
kept so the provenance of the snapshot is reviewable and so a future
intentional timing change can re-freeze it in one step::

    PYTHONPATH=src python tests/coldstart/capture_prerefactor.py

The committed file also holds a ``server_legacy`` scenario per seed,
captured from a lazy-eviction admission model the server no longer has;
the battery does not read it, and the file is kept byte-for-byte as
captured.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

from repro.engine import canonicalize
from repro.fleet import node as fleet_node
from repro.fleet.config import FleetConfig
from repro.fleet.region import simulate_region
from repro.server.server import ServerConfig, ServerSimulator
from repro.workloads.arrival import make_arrival_process
from repro.workloads.suite import SUITE

DATA_PATH = Path(__file__).parent / "data" / "prerefactor.json"

#: Seeds the battery replays (>= 3 per the issue).
SEEDS = (3, 17, 2022)


def canonical(value) -> str:
    return json.dumps(canonicalize(value), sort_keys=True,
                      separators=(",", ":"))


#: The window :func:`run_server_enforced` simulates.
ENFORCED_MS = 15_000.0


def server_stats_dict(stats) -> dict:
    """Every ServerStats field that the scalar penalty path can move, and
    the simulated window under the key the capture recorded it (the
    stats no longer echo ``run()``'s argument)."""
    return {
        "arrivals": stats.arrivals,
        "invocations": stats.invocations,
        "cold_starts": stats.cold_starts,
        "dropped": stats.dropped,
        "evictions": stats.evictions,
        "busy_ms": stats.busy_ms,
        "latencies_ms": stats.latencies_ms,
        "iats_ms": stats.iats_ms,
        "peak_warm_instances": stats.peak_warm_instances,
        "peak_memory_bytes": stats.peak_memory_bytes,
        "simulated_ms": ENFORCED_MS,
    }


def run_server_enforced(seed: int):
    """Warm-set admission model with a short TTL: plenty of cold starts,
    every one charged the scalar 120ms penalty."""
    sim = ServerSimulator(
        config=ServerConfig(cores=4, cold_start_ms=120.0, ttl_minutes=0.05),
        seed=seed)
    for i, profile in enumerate(SUITE[:8]):
        sim.add_instance(profile,
                         make_arrival_process("poisson", 800.0,
                                              seed=seed * 1000 + i))
    return sim.run(ENFORCED_MS)


def run_fleet(seed: int) -> dict:
    # The capture ran a 0.05-minute keep-alive; the fleet's TTL is now a
    # constant, which its node builder reads at call time.
    with mock.patch.object(fleet_node, "TTL_MINUTES", 0.05):
        region = simulate_region(FleetConfig(
            nodes=2, instances=60, functions=10, duration_ms=10_000.0,
            mean_iat_ms=700.0, seed=seed))
    # The config echo is excluded on purpose: FleetConfig's fields have
    # changed since the capture, and the battery pins *results*, not the
    # config schema.
    return {"node_results": region["node_results"],
            "region": region["region"]}


def main() -> None:
    payload = {}
    for seed in SEEDS:
        payload[str(seed)] = {
            "server_enforced": canonical(
                server_stats_dict(run_server_enforced(seed))),
            "fleet": canonical(run_fleet(seed)),
        }
    DATA_PATH.parent.mkdir(parents=True, exist_ok=True)
    DATA_PATH.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    print(f"wrote {DATA_PATH} "
          f"({DATA_PATH.stat().st_size} bytes, seeds {SEEDS})")


if __name__ == "__main__":
    main()

"""Child-process entry point: one benchmarked command.

    python -m perfbench.child cli ARGV...
    python -m perfbench.child fleet REGION_JSON SEED OUT_JSON ENGINE_TRACE

``cli`` runs ARGV through the ``lukewarm-repro`` entry point
(``repro.experiments.runner:main``), exactly as the installed console
script does.  ``fleet`` runs the region simulation behind
``lukewarm-repro fleet`` -- :func:`repro.fleet.region.simulate_region` on
the region :func:`repro.experiments.ext_fleet.base_fleet` builds without
``--fast``, serial and uncached, Jukebox off then on for each arrival mix
REGION_JSON names -- and writes the canonical region results to OUT_JSON.

When ``$PERFBENCH_SPOOL`` names a directory the command runs under span
tracing (:mod:`perfbench.spans`) and its spans are spooled there.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, List


def _fleet(argv: List[str]) -> int:
    from repro import engine
    from repro.experiments.common import RunConfig
    from repro.experiments.ext_fleet import base_fleet
    from repro.fleet.region import simulate_region

    spec = json.loads(argv[0])
    seed, out, trace = int(argv[1]), Path(argv[2]), Path(argv[3])
    base = base_fleet(RunConfig.full().replace(seed=seed))
    regions = []
    with engine.configure(jobs=1, clock=time.perf_counter, trace_path=trace):
        for arrival in spec["arrivals"]:
            for jukebox in (False, True):
                config = base.replace(arrival=arrival, jukebox=jukebox)
                # One node per shard: with fewer shards the per-cell times
                # fall in clusters and their median jumps between runs.
                regions.append(simulate_region(config, shards=base.nodes))
    out.write_text(json.dumps(regions, sort_keys=True))
    return 0


def _load(mode: str) -> Callable[[List[str]], int]:
    """Import the program for ``mode`` and return the command to run."""
    if mode == "cli":
        from repro.experiments.runner import main

        return main
    if mode == "fleet":
        import repro.experiments.ext_fleet  # noqa: F401  (timed as imports)

        return _fleet
    raise SystemExit(f"unknown command kind {mode!r}")


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    command = _load(argv[0])
    imported = time.perf_counter()
    # perfbench.spans.SPOOL_ENV; not imported, so an untraced command
    # loads nothing beyond the program.
    spool = os.environ.get("PERFBENCH_SPOOL")
    if not spool:
        return command(argv[1:])
    from perfbench import spans

    with spans.Tracing() as tracing:
        tracing.recorder.add("startup.import", started, imported)
        try:
            return command(argv[1:])
        finally:
            tracing.recorder.spool(Path(spool))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

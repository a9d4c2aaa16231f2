"""A sacrificial region-sweep driver for fleet crash drills.

The fleet analogue of :mod:`tests.engine.crash_driver`: simulates one
region shard-by-shard against an on-disk result cache, printing one
flushed ``shard <i> ok`` line as each shard's result is checkpointed and
a final ``RESULT <canonical json>`` line for the aggregated region.  The
chaos smoke SIGKILLs it mid-sweep, reruns it, and asserts the rerun (a)
serves the killed run's shards from the cache and (b) prints a RESULT
line byte-identical to an undisturbed run.

Serial on purpose: a SIGKILL leaves only the cache directory behind.
Invoke as ``python -m tests.fleet.fleet_driver`` from the repo root.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.engine import canonicalize, configure, sweep_outcomes
from repro.fleet.config import FleetConfig
from repro.fleet.region import shard_jobs
from repro.fleet.result import aggregate_nodes

#: The drill region: big enough that a mid-sweep SIGKILL has shards both
#: checkpointed and pending, small enough to run in well under a second.
DRILL_SHARDS = 4


def drill_config(seed: int = 1) -> FleetConfig:
    return FleetConfig(nodes=4, instances=120, functions=10,
                       duration_ms=8_000.0, mean_iat_ms=500.0, seed=seed)


def result_line(node_results: Sequence[dict]) -> str:
    region = aggregate_nodes(list(node_results))
    return "RESULT " + json.dumps(canonicalize(region), sort_keys=True,
                                  separators=(",", ":"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.fleet.fleet_driver")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    jobs = shard_jobs(drill_config(args.seed), shards=DRILL_SHARDS)
    node_results: List[dict] = []
    with configure(cache_dir=args.cache_dir) as ctx:
        for i, job in enumerate(jobs):
            [outcome] = sweep_outcomes([job])
            node_results.extend(outcome.value)
            # One flushed line per checkpoint: the parent counts these to
            # SIGKILL at an exact point in the schedule.
            print(f"shard {i} ok", flush=True)
        print(result_line(node_results), flush=True)
        print(f"STATS hits={ctx.stats.hits} misses={ctx.stats.misses}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

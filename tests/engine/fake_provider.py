"""A millisecond-cheap config provider for engine resilience tests.

Resilience tests need many sweep cells (20-cell batches, kill/retry
schedules, serial-vs-pool oracles) and none of them care about simulator
output -- only about which cells ran, failed, or were retried.  This
module registers ``resilience_echo``: a builder that just echoes its
inputs as a deterministic dict.  Jobs reference it via
``provider="tests.engine.fake_provider"`` so pool workers import it on
their own (the tests package is importable from the repo root, which is
pytest's rootdir).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict

from repro.experiments.common import register_config


@register_config("resilience_echo")
def build_resilience_echo(profile: Any, machine: Any, cfg: Any,
                          **opts: Any) -> Dict[str, Any]:
    return {
        "profile": profile,
        "machine": machine,
        "cfg": cfg,
        "opts": dict(sorted(opts.items())),
    }


@register_config("worker_pid")
def build_worker_pid(profile: Any, machine: Any, cfg: Any,
                     **opts: Any) -> Dict[str, Any]:
    """The process that ran the cell.  The short hold keeps one worker
    from draining a whole batch before its siblings have started."""
    time.sleep(0.005)
    return {"pid": os.getpid(), "opts": dict(sorted(opts.items()))}


@register_config("exit_once")
def build_exit_once(profile: Any, machine: Any, cfg: Any, marker: str = "",
                    **opts: Any) -> Dict[str, Any]:
    """Exit the running process with status 0 the first time a cell with
    a ``marker`` path runs (creating the file), then echo its options.
    Only for pool workers: in-process it would end the caller."""
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        sys.exit(0)
    return {"opts": dict(sorted(opts.items()))}


@register_config("diff_numeric")
def build_diff_numeric(profile: Any, machine: Any, cfg: Any,
                       scale: float = 1.0, **opts: Any) -> Dict[str, Any]:
    """A JSON-only deterministic cell for differential equivalence tests.

    Returns pure scalars derived from a seeded RNG over the cell's
    identity, so serial, pooled, cached, and fault-retried sweeps over the
    same grid must serialize to byte-identical canonical JSON.
    """
    import random

    rng = random.Random(f"{profile.abbrev}:{cfg.seed}:{scale}")
    return {
        "abbrev": profile.abbrev,
        "seed": cfg.seed,
        "scale": scale,
        "value": round(rng.random(), 12),
        "draws": [round(rng.random(), 12) for _ in range(4)],
        "opts": dict(sorted(opts.items())),
    }

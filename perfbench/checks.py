"""Output checks, run in the benchmark process outside the timed region.

These import the program from the checkout's ``src`` (see
:func:`import_program`) so results are read and re-simulated with the
program's own cache format, job identity and canonical encoding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def import_program(root: Path) -> None:
    """Make the checkout's ``src`` importable in this process."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


class _Captured(Exception):
    def __init__(self, jobs: List[Any]) -> None:
        super().__init__(f"{len(jobs)} job(s)")
        self.jobs = jobs


class _CapturingExecutor:
    """Executor that records the first batch it is handed, then stops
    the experiment before any cell runs."""

    jobs = 1

    def run_tasks(self, tasks: Sequence[Any], on_outcome: Any = None,
                  guard: Any = None) -> List[Any]:
        raise _Captured([task.job for task in tasks])


def sweep_jobs(argv: Sequence[str]) -> List[Any]:
    """The cells a ``lukewarm-repro`` command line sweeps, in submission
    order, built by the experiment's own code path (nothing runs).

    Supports the flags the benchmark passes: one experiment name,
    ``--fast``, ``--seed`` and ``--functions``.
    """
    from repro import engine
    from repro.experiments.runner import build_parser, run_experiment
    from repro.experiments.common import RunConfig

    args = build_parser().parse_args(list(argv))
    cfg = (RunConfig.fast() if args.fast else RunConfig.full()).replace(
        seed=args.seed, backend=args.backend)
    with engine.configure() as ctx:
        ctx.executor = _CapturingExecutor()
        try:
            run_experiment(args.experiments[0], cfg, args.functions)
        except _Captured as captured:
            return captured.jobs
    raise RuntimeError(f"{' '.join(argv)} swept no cells")


def cached_results(jobs: Sequence[Any], cache_dir: Path
                   ) -> List[Tuple[Any, bool, Any]]:
    """``(job, hit, value)`` for every job, read through the program's
    result cache."""
    from repro.engine.cache import ResultCache

    cache = ResultCache(cache_dir)
    return [(job, *cache.get(job.key())) for job in jobs]


def results_digest(results: Sequence[Tuple[Any, bool, Any]]) -> str:
    """Digest of every cell's identity and canonical result."""
    from repro.engine.job import fingerprint

    digest = hashlib.sha256()
    for job, hit, value in results:
        digest.update(json.dumps([job.describe(), repr(job.opts),
                                  fingerprint(value) if hit else None])
                      .encode())
    return digest.hexdigest()


def simulated_instructions(results: Sequence[Tuple[Any, bool, Any]]) -> int:
    """Instructions of the measured invocations the results cover."""
    total = 0
    for _job, hit, value in results:
        if not hit:
            continue
        total += int(value["instructions"] if isinstance(value, Mapping)
                     else value.instructions)
    return total


def scalar_resimulation(results: Sequence[Tuple[Any, bool, Any]],
                        seed: int) -> Check:
    """Re-run one seeded-random cell in-process on the scalar reference
    backend; its canonical result must equal the cached one byte for
    byte."""
    from repro.engine.executors import execute_job
    from repro.engine.job import canonicalize

    job, hit, value = results[random.Random(seed).randrange(len(results))]
    name = f"scalar re-simulation of {job.describe()}"
    if not hit:
        return Check(name, False, "cell missing from the cache")
    scalar = dataclasses.replace(job, cfg=job.cfg.replace(backend="scalar"))
    expected = json.dumps(canonicalize(value), sort_keys=True)
    actual = json.dumps(canonicalize(execute_job(scalar)), sort_keys=True)
    return Check(name, actual == expected,
                 "" if actual == expected else "differs from the columnar "
                 "result in the cache")


def conservation(regions: Sequence[Mapping[str, Any]]) -> Check:
    """arrivals == invocations + dropped on every node of every region."""
    broken = [(r["config"]["arrival"], r["config"]["jukebox"], n["node"])
              for r in regions for n in r["node_results"]
              if n["arrivals"] != n["invocations"] + n["dropped"]]
    return Check("arrivals == invocations + dropped on every node",
                 not broken and bool(regions),
                 f"broken on (arrival, jukebox, node) {broken[:3]}"
                 if broken else "")


def committed_digest(table: Mapping[str, Mapping[str, str]], workload: str,
                     seed: int, digest: str) -> Check:
    """Compare with the digest committed for this workload and seed
    (``perfbench/digests.json``).  A seed with none committed passes; its
    commands are still compared with each other."""
    expected = table.get(workload, {}).get(str(seed))
    if expected is None:
        return Check(f"result digest: none committed for seed {seed}", True)
    return Check(f"result digest equals the one committed for seed {seed}",
                 digest == expected,
                 "" if digest == expected
                 else f"{digest[:12]} != committed {expected[:12]}")


def same_digests(digests: Sequence[str]) -> Check:
    distinct = sorted(set(digests))
    return Check(f"result digest identical across {len(digests)} "
                 f"command(s) of this run", len(distinct) == 1,
                 "" if len(distinct) == 1
                 else f"{len(distinct)} distinct digests")

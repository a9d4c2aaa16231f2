"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``lukewarm-repro``)::

    lukewarm-repro list
    lukewarm-repro fig10                 # full scale
    lukewarm-repro fig10 --fast          # reduced scale
    lukewarm-repro fig01 fig02 --fast --jobs 4
    lukewarm-repro all --fast --no-cache
    lukewarm-repro fig05 --fast --json

Simulation cells are dispatched through :mod:`repro.engine`: ``--jobs``
fans them out over worker processes (results stay bit-identical to a
serial run) and a content-addressed cache under ``--cache-dir`` memoizes
each cell so re-runs skip simulation entirely.

Failure handling: ``--retries N`` re-runs transiently failing cells with
deterministic backoff, ``--keep-going`` finishes the remaining
experiments when one fails (completed cells stay cached either way, so a
rerun resumes warm), ``--job-timeout`` / ``--sweep-deadline`` bound hung
cells and runaway batches in wall-clock time (hung pool workers are
killed and retried; an expired sweep fails fast), and ``--inject-fault
SPEC`` activates the deterministic fault harness (:mod:`repro.faults`)
for failure drills.  Exit status: 0 on success, 2 on a usage error, 3
when any experiment failed (deadline expiries included).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import engine
from repro.errors import ConfigurationError
from repro.experiments.scale import RunConfig
from repro.faults import parse_fault_plan
from repro.sim.result import BACKENDS
from repro.workloads.suite import BY_ABBREV, suite_subset

#: Environment variable overriding the default result-cache location.
CACHE_DIR_ENV = "LUKEWARM_CACHE_DIR"


class Experiment(NamedTuple):
    """A registered experiment: its module is imported on first use, so a
    run loads only the experiments it runs."""

    name: str
    description: str
    #: Dotted name of the module providing ``run``, ``render`` and,
    #: optionally, ``SWEEP_CONFIGS``.
    module: str

    def load(self) -> ModuleType:
        return importlib.import_module(self.module)

    @property
    def configs(self) -> Tuple[str, ...]:
        return tuple(getattr(self.load(), "SWEEP_CONFIGS", ()))


def _experiment(name: str, description: str, module: str) -> Experiment:
    return Experiment(name, description, f"repro.experiments.{module}")


EXPERIMENTS: Dict[str, Experiment] = {
    "fig01": _experiment("fig01", "CPI vs. inter-arrival time", "fig01_iat"),
    "fig02": _experiment("fig02", "Top-Down CPI stacks", "fig02_topdown"),
    "fig03": _experiment("fig03", "front-end stall split", "fig03_frontend"),
    "fig04": _experiment("fig04", "mean CPI breakdown",
                         "fig04_cpi_breakdown"),
    "fig05": _experiment("fig05", "L2/L3 MPKI breakdowns", "fig05_mpki"),
    "fig06": _experiment("fig06", "footprints and commonality",
                         "fig06_footprints"),
    "fig08": _experiment("fig08", "metadata size vs. region size",
                         "fig08_metadata"),
    "fig09": _experiment("fig09", "speedup vs. metadata budget",
                         "fig09_storage"),
    "fig10": _experiment("fig10", "main speedup result", "fig10_speedup"),
    "fig11": _experiment("fig11", "miss coverage", "fig11_coverage"),
    "fig12": _experiment("fig12", "memory-bandwidth overhead",
                         "fig12_bandwidth"),
    "fig13": _experiment("fig13", "PIF comparison", "fig13_pif"),
    "table1": _experiment("table1", "simulated processor parameters",
                          "table1_config"),
    "table2": _experiment("table2", "function suite", "table2_workloads"),
    "table3": _experiment("table3", "MPKI reduction, Skylake vs. Broadwell",
                          "table3_mpki_reduction"),
    "throughput": _experiment("throughput",
                              "extension: server capacity uplift",
                              "ext_throughput"),
    "fleet": _experiment("fleet",
                         "extension: region-scale fleet capacity",
                         "ext_fleet"),
    "spectrum": _experiment("spectrum",
                            "extension: cold→lukewarm→warm frequency sweep",
                            "ext_spectrum"),
}


def default_cache_dir() -> Path:
    """Resolve the on-disk result cache location.

    ``LUKEWARM_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME`` (or
    ``~/.cache``) plus ``lukewarm-repro``.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "lukewarm-repro"


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}") from None
    if not math.isfinite(value):
        # A NaN or infinite budget never expires.
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds, got {value}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lukewarm-repro",
        description=("Regenerate tables/figures from 'Lukewarm Serverless "
                     "Functions' (ISCA 2022)"))
    parser.add_argument("experiments", nargs="+",
                        help="experiment names (see 'list'), or 'all'/'list'")
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale (fewer invocations, scaled traces)")
    parser.add_argument("--functions", nargs="+", default=None,
                        help="restrict to these function abbreviations")
    parser.add_argument("--seed", type=_nonnegative_int, default=1)
    parser.add_argument("--backend", choices=BACKENDS, default="columnar",
                        help="simulation backend; both produce byte-"
                             "identical results, 'scalar' is the slow "
                             "reference interpreter (default: columnar)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="simulate up to N cells in parallel "
                             "(default: 1, serial)")
    parser.add_argument("--retries", type=_nonnegative_int, default=0,
                        metavar="N",
                        help="retry transiently failing cells up to N times "
                             "with deterministic backoff (default: 0)")
    parser.add_argument("--keep-going", action="store_true",
                        help="on an experiment failure, keep running the "
                             "remaining experiments and exit 3 at the end")
    parser.add_argument("--inject-fault", action="append", default=None,
                        metavar="SPEC", dest="inject_faults",
                        help="inject a deterministic fault (repeatable); "
                             "SPEC is ACTION:SELECTOR[:OPTION...], e.g. "
                             "'fail:#3', 'kill:#2', 'fail:config=jukebox:"
                             "always', 'corrupt:*'")
    parser.add_argument("--job-timeout", type=_positive_float, default=None,
                        metavar="SECONDS", dest="job_timeout",
                        help="kill any single simulation cell running longer "
                             "than this (hung workers are reaped and the "
                             "cell retried per --retries; needs --jobs >= 2 "
                             "to preempt)")
    parser.add_argument("--sweep-deadline", type=_positive_float, default=None,
                        metavar="SECONDS", dest="sweep_deadline",
                        help="fail whatever a sweep batch has not finished "
                             "after this many seconds (the run exits 3; "
                             "completed cells stay cached)")
    parser.add_argument("--cache-dir", type=Path, default=None, metavar="PATH",
                        help="result cache location (default: "
                             f"${CACHE_DIR_ENV} or ~/.cache/lukewarm-repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache for this run")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write a repro.obs JSONL event trace to FILE "
                             "(inspect with 'python -m repro.obs summarize')")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit reports plus engine stats as JSON")
    return parser


def run_experiment(name: str, cfg: RunConfig,
                   functions: Optional[List[str]] = None) -> str:
    """Run one experiment by name and return its rendered report."""
    module = EXPERIMENTS[name].load()
    kwargs = {}
    if functions:
        kwargs["functions"] = functions
    result = module.run(cfg, **kwargs)
    return module.render(result)


def _print_listing() -> None:
    for exp in EXPERIMENTS.values():
        sweeps = f"  [{', '.join(exp.configs)}]" if exp.configs else ""
        print(f"{exp.name:8s} {exp.description}{sweeps}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = list(args.experiments)
    if "list" in names:
        _print_listing()
        return 0
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    unknown = [f for f in args.functions or () if f not in BY_ABBREV]
    if unknown:
        print(f"unknown functions: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(BY_ABBREV)}", file=sys.stderr)
        return 2
    try:
        suite_subset(args.functions)
    except ConfigurationError as exc:
        print(f"--functions: {exc}", file=sys.stderr)
        return 2
    if args.no_cache and args.cache_dir is not None:
        print("--no-cache and --cache-dir contradict each other; "
              "pass at most one", file=sys.stderr)
        return 2
    try:
        faults = parse_fault_plan(args.inject_faults or ())
    except ConfigurationError as exc:
        print(f"--inject-fault: {exc}", file=sys.stderr)
        return 2
    policy = engine.FailurePolicy(retries=args.retries, seed=args.seed)
    cfg = (RunConfig.fast() if args.fast else RunConfig.full()).replace(
        seed=args.seed, backend=args.backend)
    cache_dir: Optional[Path]
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    records: List[Dict[str, object]] = []
    failed: List[Tuple[str, BaseException]] = []
    with engine.configure(jobs=args.jobs, cache_dir=cache_dir,
                          clock=time.perf_counter, policy=policy,
                          faults=faults, sleep=time.sleep,
                          trace_path=args.trace,
                          job_timeout_s=args.job_timeout,
                          sweep_deadline_s=args.sweep_deadline) as ctx:
        for name in names:
            before = ctx.stats.snapshot()
            started = ctx.clock()
            try:
                report = run_experiment(name, cfg, args.functions)
                error = None
            except Exception as exc:  # repro-lint: disable=REPRO005
                # Completed cells are already checkpointed in the cache;
                # record the failure and (under --keep-going) move on.
                report = None
                error = exc
                failed.append((name, exc))
            seconds = ctx.clock() - started
            delta = ctx.stats.since(before)
            if args.as_json:
                records.append({
                    "experiment": name,
                    "description": EXPERIMENTS[name].description,
                    "seconds": round(seconds, 3),
                    "report": report,
                    "error": (f"{type(error).__name__}: {error}"
                              if error is not None else None),
                    "engine": {
                        "cells": delta.jobs,
                        "cache_hits": delta.hits,
                        "simulated": delta.misses,
                        "failures": delta.failures,
                        "retries": delta.retries,
                        "sim_seconds": round(delta.sim_seconds, 3),
                    },
                })
            elif error is not None:
                print(f"== {name}: {EXPERIMENTS[name].description} ==")
                print(f"-- {name} FAILED after {seconds:.1f}s: "
                      f"{type(error).__name__}: {error} --\n", file=sys.stderr)
            else:
                print(f"== {name}: {EXPERIMENTS[name].description} ==")
                print(report)
                print(f"-- {name} done in {seconds:.1f}s "
                      f"({delta.describe()}) --\n")
            if error is not None and not args.keep_going:
                break
        footer = ctx.tracer.describe()
    if args.as_json:
        print(json.dumps(records, indent=2))
    elif footer != "obs: no events":
        print(footer)
    if args.trace is not None:
        print(f"trace written to {args.trace} "
              f"({ctx.tracer.events_emitted} events)", file=sys.stderr)
    if failed:
        summary = ", ".join(name for name, _ in failed)
        print(f"{len(failed)} experiment(s) failed: {summary}; completed "
              f"cells are cached, rerun to resume warm", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

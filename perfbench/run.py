"""Run one benchmark workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's command runs as often
as fits in S seconds, each time in a fresh interpreter (closed loop, one
command at a time), after an untimed set-up.  End-to-end times are
scaled to a reference host by the host speed sampled while each command
ran (``perfbench/calibrate.py``).  Outputs are checked after the timed
commands.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics BENCHMARK.json declares with ``--trace 0``, its
per-layer metrics of a traced command (``perfbench/spans.py``) with
``--trace 1``.  The exit status is 0 when every output check passed, 1
when one failed, 2 on a usage error or when the checkout holds no
program sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, checks, layers, stats, workloads  # noqa: E402
from perfbench.checks import Check  # noqa: E402
from perfbench.proc import ChildTimeout, python_env, run_measured  # noqa: E402
from perfbench.spans import read_spool  # noqa: E402

#: Interpreter warm-ups per run; set-up time reports their median.
WARM_UPS = 5

#: Where the last traced command's spans are kept, one file per workload.
SPANS_DIR = ROOT / ".perfbench" / "spans"


def declared() -> Dict[str, Any]:
    """BENCHMARK.json: the workloads, and the metrics a result carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def warm_up(workload: workloads.Workload, speed: calibrate.HostSpeed,
            cpu: int) -> List[float]:
    """Start the program's interpreter a few times: compiles bytecode on
    a fresh checkout and warms the page cache before anything is timed.
    Returns each start's reference-host seconds (it ran on ``cpu``)."""
    samples = []
    for index in range(WARM_UPS):
        out = workload.work / f"warm-up-{index}"
        started = time.perf_counter()
        measured = run_measured(
            [sys.executable, "-c", "import repro.experiments.runner"],
            cwd=ROOT, env=python_env(ROOT), stdout=out,
            stderr=out.with_suffix(".err"),
            timeout_s=workloads.CHILD_TIMEOUT_S)
        if measured.returncode != 0:
            raise workloads.CommandFailed(
                "the program does not import: "
                + out.with_suffix(".err").read_text(errors="replace"))
        samples.append(measured.wall_s
                       * speed.scale(started, time.perf_counter(), cpu))
    return samples


def measure(workload: workloads.Workload, seconds: float, traced: bool,
            speed: calibrate.HostSpeed
            ) -> Tuple[List[workloads.Outcome], List[Tuple[Any, Any, Path]]]:
    """Run commands until the next one would end past ``seconds``; each
    untraced one is scaled by the host speed sampled while it ran.

    Traced runs alternate an untraced and a traced command, so each
    traced command has an untraced partner to measure overhead against.
    """
    outcomes: List[workloads.Outcome] = []
    pairs: List[Tuple[Any, Any, Path]] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        before = time.perf_counter()
        plain = workload.run()
        plain.scale = speed.scale(before, time.perf_counter())
        plain.cell_scales = [speed.scale(*window)
                             for window in plain.cell_windows]
        outcomes.append(plain)
        if traced:
            spool = workload.work / f"spool-{rounds}"
            spool.mkdir()
            spanned = workload.run(spool=spool)
            pairs.append((plain, spanned, spool))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            return outcomes, pairs


def end_to_end(outcomes: List[workloads.Outcome], setup_s: float
               ) -> Dict[str, float]:
    """The end-to-end metrics, every time in reference-host units."""
    walls = [o.measured.wall_s * o.scale for o in outcomes]
    samples = [ms for o in outcomes for ms in o.scaled_cell_ms()]
    return {
        "wall_s": stats.median(walls),
        "cpu_s": stats.median([o.measured.cpu_s * o.scale
                               for o in outcomes]),
        "cell_ms_p50": stats.median(samples),
        "cell_ms_tail": stats.tail(samples)[0],
        "inv_per_s": stats.median([o.invocations / wall
                                   for o, wall in zip(outcomes, walls)]),
        "peak_rss_mb": max(o.measured.peak_rss_mb for o in outcomes),
        "setup_s": setup_s,
    }


def per_layer(workload: workloads.Workload,
              pairs: List[Tuple[Any, Any, Path]]) -> Tuple[Dict[str, float],
                                                           str]:
    """Median per-layer metrics over the traced commands, plus the last
    one's self-time table; its spans are kept as one JSONL file."""
    runs = []
    for plain, spanned, spool in pairs:
        spans = read_spool(spool)
        runs.append(layers.per_layer_metrics(
            spans, spanned.engine_events, spanned.measured.pid,
            spanned.measured.wall_s, plain.measured.wall_s,
            workload.workers))
    metrics = {name: stats.median([run[name] for run in runs])
               for name in runs[0]}
    # ``spans`` and ``spanned`` are the last traced command's.
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    target = SPANS_DIR / f"{workload.name}.jsonl"
    with open(target, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    table = layers.format_table(spans, spanned.measured.pid,
                                spanned.measured.wall_s)
    return metrics, f"{table}\nspans: {target.relative_to(ROOT)}"


def run_checks(workload: workloads.Workload,
               outcomes: List[workloads.Outcome]) -> List[Check]:
    found = [c for o in outcomes for c in o.checks]
    found.append(checks.same_digests([o.digest for o in outcomes]))
    found.append(checks.committed_digest(
        workloads.load_digests(), workload.name, workload.seed,
        outcomes[0].digest))
    found.extend(workload.final_checks())
    return found


def _summarize(found: List[Check]) -> List[str]:
    grouped: Dict[str, List[Check]] = {}
    for check in found:
        grouped.setdefault(check.name, []).append(check)
    lines = []
    for name, group in grouped.items():
        bad = [c for c in group if not c.ok]
        times = f" (x{len(group)})" if len(group) > 1 else ""
        detail = f": {bad[0].detail}" if bad and bad[0].detail else ""
        lines.append(f"  {'FAIL' if bad else 'ok':4s} {name}{times}{detail}")
    return lines


def execute(name: str, seed: int, seconds: float, traced: bool,
            work: Path) -> Tuple[Dict[str, Any], List[str]]:
    """Set up, measure and check one workload; returns the result object
    and the human-readable report lines."""
    spec = declared()
    checks.import_program(ROOT)
    workload = workloads.make(name, ROOT, work, seed)
    # Every child inherits the pinning; the host speed is sampled on
    # these CPUs.  Set-up is serial, so it runs on one of them.
    cpus = calibrate.command_cpus(workload.workers)
    solo = max(cpus)
    allowed = os.sched_getaffinity(0)
    try:
        with calibrate.HostSpeed(cpus) as speed:
            os.sched_setaffinity(0, {solo})
            speed.focus = solo
            warm = warm_up(workload, speed, solo)
            started = time.perf_counter()
            one_off = workload.setup()
            one_off *= speed.scale(started, time.perf_counter(), solo)
            speed.focus = None
            os.sched_setaffinity(0, cpus)
            outcomes, pairs = measure(workload, seconds, traced, speed)
    finally:
        os.sched_setaffinity(0, allowed)
    # Per-command preparation (creating a directory) takes well under a
    # millisecond and is left unscaled.
    setup_s = (stats.median(warm) + one_off
               + stats.median(workload.prep_s))
    everything = outcomes + [spanned for _plain, spanned, _s in pairs]
    found = run_checks(workload, everything)
    attempted = sum(o.cells for o in everything) + len(found)
    failed = (sum(o.failed_cells for o in everything)
              + sum(1 for c in found if not c.ok))
    e2e = end_to_end(outcomes, setup_s)
    samples = [ms for o in outcomes for ms in o.cell_ms]
    _tail, percentile = stats.tail(samples)
    lines = [f"perfbench {name}: seed {seed}, {len(outcomes)} untraced "
             f"command(s) in {seconds:g} s"
             + (f", {len(pairs)} traced" if traced else "")
             + f", CPUs {sorted(cpus)}",
             f"  host speed: kernel pass median {speed.pass_ms():.3f} ms "
             f"over {len(speed.samples)} samples (reference "
             f"{1000 * calibrate.REFERENCE_S:g} ms); command scales "
             f"{min(o.scale for o in outcomes):.3f}-"
             f"{max(o.scale for o in outcomes):.3f}; times below are "
             f"reference-host times",
             f"  {'raw wall_s':16s} "
             f"{stats.median([o.measured.wall_s for o in outcomes]):14.4f} s"
             f"  (host time, unscaled)"]
    for metric in spec["end_to_end"]:
        key, note = metric["name"], ""
        if key == "cell_ms_tail":
            note = f"  (p{percentile:.0f} of {len(samples)} cells)"
        lines.append(f"  {key:16s} {e2e[key]:14.4f} {metric['unit']}{note}")
    instructions = [o.instructions / (o.measured.wall_s * o.scale) / 1e6
                    for o in outcomes if o.instructions]
    if instructions:
        lines.append(f"  {'sim_minst_per_s':16s} "
                     f"{stats.median(instructions):14.4f} Minst/s  "
                     f"(measured invocations' instructions)")
    lines.append(f"  {'fail_ratio':16s} {failed:9d}/{attempted:<4d}"
                 f" (failed cells and checks / attempted)")
    lines.append("checks:")
    lines.extend(_summarize(found))
    if traced:
        measured, table = per_layer(workload, pairs)
        lines.append("per-layer self time of the last traced command:")
        lines.append(table)
    else:
        measured = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]}
                    for m in spec["per_layer" if traced else "end_to_end"]},
    }
    return result, lines


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.load_spec()["workloads"]))
    parser.add_argument("--seed", type=int,
                        default=workloads.load_spec()["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, lines = execute(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
    except (workloads.CommandFailed, ChildTimeout) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

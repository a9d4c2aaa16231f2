"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs ``perfbench/run.py`` once per seed, one after another, and prints
each metric's median and its interquartile range as a share of the
median next to the bound in BENCHMARK.json.  A benchmark is steady when
every spread, ``setup_s``'s included, stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def seeds(text: str) -> List[int]:
    """``1-10``, ``4242``, or a comma-separated list of such ranges."""
    found: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        found.extend(range(int(first), int(last or first) + 1))
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}"
                  f"\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed} ({time.perf_counter() - started:.0f} s run): "
              + ", ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':14s} {'median':>12s} {'spread':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = stats.quartile_spread(series)
        flag = "" if spread < metric["bound"] / 3 else "  <- wide"
        print(f"{metric['name']:14s} {stats.median(series):12.4f} "
              f"{spread:7.3f} {metric['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

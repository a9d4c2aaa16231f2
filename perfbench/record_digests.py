"""Record the result digest each workload must produce for some seeds.

    python3 perfbench/record_digests.py --seeds 0-30,4242 [--workload NAME]

Runs each workload's command once per seed, untimed, with that command's
output checks, and writes its result digest to ``perfbench/digests.json``.
``run.py`` compares every run with the digest recorded there for its
workload and seed.  Re-record, and commit the file, only with a change
that is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402
from perfbench.spread import seeds  # noqa: E402


def record(name: str, seed: int, work: Path) -> str:
    """One command's result digest; raises if a cell or a check failed."""
    workload = workloads.make(name, ROOT, work, seed)
    workload.setup()
    outcome = workload.run()
    failed = [c.name for c in outcome.checks if not c.ok]
    if outcome.failed_cells or failed:
        raise workloads.CommandFailed(
            f"{name} seed {seed}: {outcome.failed_cells} failed cell(s), "
            f"failed checks {failed}")
    return outcome.digest


def write(table: Dict[str, Dict[str, str]]) -> None:
    ordered = {name: dict(sorted(table[name].items(),
                                 key=lambda item: int(item[0])))
               for name in workloads.load_spec()["workloads"] if name in table}
    workloads.DIGESTS_PATH.write_text(json.dumps(ordered, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    names = list(workloads.load_spec()["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    checks.import_program(ROOT)
    table = workloads.load_digests() if workloads.DIGESTS_PATH.exists() \
        else {}
    for name in args.workload or names:
        for seed in args.seeds:
            work = ROOT / ".perfbench" / f"record-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                digest = record(name, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = digest
            # Written after every seed, so an interrupted run keeps its work.
            write(table)
            print(f"{name} seed {seed}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: set-up, one timed command, its outputs.

Every timed command runs in a fresh child interpreter
(:mod:`perfbench.child`), one at a time; its outputs are read back and
checked here, outside the timed region.  ``workloads.json`` describes
each workload.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.checks import Check
from perfbench.proc import Measured, python_env, run_measured
from perfbench.spans import SPOOL_ENV

SPEC_PATH = Path(__file__).with_name("workloads.json")
#: Workload -> seed -> the result digest its command must produce
#: (written by ``perfbench/record_digests.py``).
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Longest a single child command may run before it is killed.
CHILD_TIMEOUT_S = 150.0


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


class CommandFailed(RuntimeError):
    """A timed command exited non-zero or wrote unreadable output."""


@dataclass
class Outcome:
    """One timed command and what its outputs show."""

    measured: Measured
    cells: int
    failed_cells: int
    #: Per cell: ``perf_counter`` seconds of its dispatch (of its sweep's
    #: start for a cell served by the cache) and of its harvest.
    cell_windows: List[Tuple[float, float]]
    #: Function invocations whose results the command delivered.
    invocations: int
    digest: str
    #: Simulated instructions of the measured invocations delivered.
    instructions: int = 0
    #: Factors that turn host times into reference-host times
    #: (:mod:`perfbench.calibrate`): the whole command's, and each cell
    #: window's; set once the host speed over them is known.
    scale: float = 1.0
    cell_scales: List[float] = field(default_factory=list)
    engine_events: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)

    @property
    def cell_ms(self) -> List[float]:
        """Per cell: host milliseconds from dispatch to harvest."""
        return [1000.0 * (end - start) for start, end in self.cell_windows]

    def scaled_cell_ms(self) -> List[float]:
        """Per cell: reference-host milliseconds from dispatch to harvest."""
        scales = self.cell_scales or [self.scale] * len(self.cell_windows)
        return [ms * scale for ms, scale in zip(self.cell_ms, scales)]


def read_events(path: Path) -> List[Dict[str, Any]]:
    """The records of a ``repro.obs`` JSONL trace."""
    if not path.exists():
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cell_windows(events: List[Dict[str, Any]]) -> List[Tuple[float, float]]:
    """Per-cell dispatch and harvest times from an engine trace, stamped
    with ``perf_counter`` (the benchmark process's clock too).

    A cell served by the cache is never dispatched; it counts from the
    start of its sweep to its cache hit.
    """
    windows: List[Tuple[float, float]] = []
    begin = 0.0
    dispatched: Dict[int, float] = {}
    for event in events:
        kind = event["kind"]
        if kind == "sweep.begin":
            begin, dispatched = event["t"], {}
        elif kind == "executor.dispatch":
            dispatched[event["index"]] = event["t"]
        elif kind == "executor.harvest" and event["ok"]:
            windows.append((dispatched.get(event["index"], begin),
                            event["t"]))
        elif kind == "cache.hit":
            windows.append((begin, event["t"]))
    return windows


class Workload:
    """A named workload of one benchmark run (one seed, one work dir)."""

    def __init__(self, name: str, spec: Dict[str, Any], root: Path,
                 work: Path, seed: int) -> None:
        self.name = name
        self.spec = spec
        self.root = root
        self.work = work
        self.seed = seed
        self.workers = int(spec["workers"])
        self.env = python_env(root)
        #: Seconds of per-command preparation (fresh cache dirs).
        self.prep_s: List[float] = []
        self._commands = 0

    def setup(self) -> float:
        """One-off preparation before anything is timed; its seconds."""
        return 0.0

    def prepare(self, directory: Path) -> List[str]:
        """Per-command preparation; returns the child's arguments."""
        raise NotImplementedError

    def collect(self, directory: Path, measured: Measured) -> Outcome:
        raise NotImplementedError

    def final_checks(self) -> List[Check]:
        return []

    def _spawn(self, argv: List[str], directory: Path,
               spool: Optional[Path] = None) -> Measured:
        env = self.env if spool is None else {**self.env,
                                              SPOOL_ENV: str(spool)}
        measured = run_measured(
            [sys.executable, "-m", "perfbench.child", *argv],
            cwd=self.root, env=env, stdout=directory / "stdout",
            stderr=directory / "stderr", timeout_s=CHILD_TIMEOUT_S)
        if measured.returncode != 0:
            tail = (directory / "stderr").read_text(errors="replace")
            raise CommandFailed(
                f"{self.name} command exited with {measured.returncode}: "
                f"{tail[-2000:]}")
        return measured

    def run(self, spool: Optional[Path] = None) -> Outcome:
        """Prepare, time and collect one command (traced when ``spool``
        names a span spool directory)."""
        directory = self.work / f"cmd-{self._commands}"
        self._commands += 1
        directory.mkdir()
        started = time.perf_counter()
        argv = self.prepare(directory)
        self.prep_s.append(time.perf_counter() - started)
        return self.collect(directory, self._spawn(argv, directory, spool))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Sweep(Workload):
    """A ``lukewarm-repro`` sweep into a fresh, empty cache per command."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.command_line = [*self.spec["command"], "--seed", str(self.seed)]
        self._jobs: Optional[List[Any]] = None
        self.results: List[Any] = []

    @property
    def jobs(self) -> List[Any]:
        """The command's cells, built by the program (nothing runs)."""
        if self._jobs is None:
            self._jobs = checks.sweep_jobs(self.command_line)
        return self._jobs

    def _cli(self, directory: Path, cache: Path) -> List[str]:
        return ["cli", *self.command_line, "--cache-dir", str(cache),
                "--json", "--trace", str(directory / "engine.jsonl")]

    def prepare(self, directory: Path) -> List[str]:
        cache = directory / "cache"
        cache.mkdir()
        return self._cli(directory, cache)

    def _record(self, directory: Path) -> Dict[str, Any]:
        try:
            return json.loads((directory / "stdout").read_text())[0]
        except (OSError, ValueError, IndexError) as exc:
            raise CommandFailed(f"{self.name}: unreadable --json output: "
                                f"{exc}") from exc

    def _outcome(self, directory: Path, measured: Measured,
                 record: Dict[str, Any], digest: str,
                 instructions: int) -> Outcome:
        engine = record["engine"]
        events = read_events(directory / "engine.jsonl")
        return Outcome(
            measured=measured, cells=engine["cells"],
            failed_cells=engine["failures"] + (record["error"] is not None),
            cell_windows=cell_windows(events),
            invocations=sum(job.cfg.invocations for job in self.jobs),
            digest=digest, instructions=instructions, engine_events=events)

    def collect(self, directory: Path, measured: Measured) -> Outcome:
        record = self._record(directory)
        self.results = checks.cached_results(self.jobs, directory / "cache")
        outcome = self._outcome(
            directory, measured, record, checks.results_digest(self.results),
            checks.simulated_instructions(self.results))
        engine = record["engine"]
        stored = all(hit for _job, hit, _value in self.results)
        outcome.checks.append(Check(
            "every cell simulated and stored in the cache",
            stored and engine["simulated"] == engine["cells"]
            == len(self.results),
            f"{engine['simulated']} simulated of {engine['cells']}, "
            f"{sum(h for _j, h, _v in self.results)} stored"))
        return outcome

    def final_checks(self) -> List[Check]:
        return [checks.scalar_resimulation(self.results, self.seed)]


class WarmRerun(Sweep):
    """The same sweep re-run against the cache its set-up filled."""

    def setup(self) -> float:
        directory = self.work / "fill"
        directory.mkdir()
        self.cache = directory / "cache"
        self.cache.mkdir()
        measured = self._spawn(self._cli(directory, self.cache), directory)
        self.fill = self._record(directory)
        self.results = checks.cached_results(self.jobs, self.cache)
        self.fill_digest = checks.results_digest(self.results)
        return measured.wall_s

    def prepare(self, directory: Path) -> List[str]:
        return self._cli(directory, self.cache)

    def collect(self, directory: Path, measured: Measured) -> Outcome:
        record = self._record(directory)
        outcome = self._outcome(
            directory, measured, record,
            _sha256(str(record["report"]).encode()),
            checks.simulated_instructions(self.results))
        engine = record["engine"]
        outcome.checks.append(Check(
            "every cell served by the cache, none simulated",
            engine["simulated"] == 0
            and engine["cache_hits"] == engine["cells"] > 0,
            f"{engine['simulated']} simulated, {engine['cache_hits']} "
            f"cached of {engine['cells']}"))
        outcome.checks.append(Check(
            "report byte-equal to the set-up run",
            record["report"] == self.fill["report"]))
        return outcome

    def final_checks(self) -> List[Check]:
        after = checks.results_digest(
            checks.cached_results(self.jobs, self.cache))
        return [Check("cached results unchanged by the re-runs",
                      after == self.fill_digest)]


class FleetRegion(Workload):
    """The fleet region simulation, serial and uncached."""

    def prepare(self, directory: Path) -> List[str]:
        return ["fleet", json.dumps(self.spec["region"], sort_keys=True),
                str(self.seed), str(directory / "regions.json"),
                str(directory / "engine.jsonl")]

    def collect(self, directory: Path, measured: Measured) -> Outcome:
        raw = (directory / "regions.json").read_bytes()
        regions = json.loads(raw)
        events = read_events(directory / "engine.jsonl")
        harvests = [e for e in events if e["kind"] == "executor.harvest"]
        outcome = Outcome(
            measured=measured, cells=len(harvests),
            failed_cells=sum(1 for e in harvests if not e["ok"]),
            cell_windows=cell_windows(events),
            invocations=sum(r["region"]["invocations"] for r in regions),
            digest=_sha256(raw), engine_events=events)
        outcome.checks.append(checks.conservation(regions))
        return outcome


KINDS = {"cold": Sweep, "warm": WarmRerun, "fleet": FleetRegion}


def make(name: str, root: Path, work: Path, seed: int) -> Workload:
    spec = load_spec()["workloads"][name]
    return KINDS[spec["kind"]](name, spec, root, work, seed)

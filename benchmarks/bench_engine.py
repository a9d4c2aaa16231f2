"""Benchmark: the sweep engine and the simulation backends.

Two halves:

* pytest-benchmark cases measuring the engine machinery — fingerprinting
  a job, serving a sweep from the warm cache, the cache store path — so a
  regression there shows up separately from one in the simulator;
* a CLI (``python benchmarks/bench_engine.py --json``) measuring
  *sweep-cell throughput* of the columnar backend against the scalar
  reference and emitting ``BENCH_engine.json``.  ``scripts/check.sh``
  runs it as the throughput gate: the build fails if the columnar
  speedup on the gate cell drops below 5x.

The CLI reports two kinds of cells:

* ``kernel`` — a synthetic steady instruction-fetch walk (periodic
  block walks re-executed lukewarm), isolating the hot path the columnar
  IR was built for: bulk walk classification + repeat folding.  This is
  the gate cell; it currently runs >10x over the scalar reference.
* ``workload`` — full Table-2 functions under the paper's lukewarm
  protocol.  Their data-access streams are inherently pointer-chasing
  LRU updates with per-event state dependences, so the end-to-end
  speedup is bounded by that serial fraction (3.5-5x, Amdahl); the JSON
  records both kinds side by side rather than hiding the distinction.

Timing is best-of-N wall clock per backend with the trace IR warmed
outside the timed region -- exactly the steady state a long sweep runs
in (traces are reused across the sweep grid, so IR construction
amortizes to zero there).
"""

from __future__ import annotations

from repro import engine
from repro.experiments.common import RunConfig
from repro.workloads.suite import get_profile
from repro.sim.params import skylake

BENCH_CFG = RunConfig(invocations=3, warmup=1, instruction_scale=0.1)


def _jobs():
    machine = skylake()
    return [engine.Job.make(get_profile(a), machine, BENCH_CFG, c)
            for a in ("Auth-G", "Email-P")
            for c in ("baseline", "jukebox")]


def test_engine_job_key(benchmark):
    """Cost of one content-address: canonicalize + sha256 a full job."""
    job = _jobs()[0]
    key = benchmark(job.key)
    assert key == job.key()


def test_engine_cache_hit_sweep(benchmark, tmp_path):
    """A fully warm sweep: four cells served without any simulation."""
    jobs = _jobs()
    with engine.configure(cache_dir=tmp_path / "cache") as ctx:
        expected = engine.sweep(jobs)  # populate

        def warm():
            return engine.sweep(jobs)

        results = benchmark(warm)
        assert ctx.stats.misses == len(jobs)  # only the populating sweep
    assert [r.cpi for r in results] == [r.cpi for r in expected]


def test_engine_cache_store(benchmark, tmp_path):
    """The miss path minus simulation: pickle + atomic rename of a result."""
    jobs = _jobs()
    with engine.configure(cache_dir=tmp_path / "seed") as ctx:
        result = engine.sweep(jobs[:1])[0]
        key = jobs[0].key()
    cache = engine.ResultCache(tmp_path / "store")

    def store():
        cache.put(key, result)

    benchmark(store)
    hit, value = cache.get(key)
    assert hit and value.cpi == result.cpi


# ---------------------------------------------------------------------------
# CLI: backend throughput gate (python benchmarks/bench_engine.py --json).

GATE_CELL = "ifetch-steady"
GATE_THRESHOLD = 5.0
BACKENDS = ("scalar", "columnar")


def _ifetch_kernel():
    """Steady periodic instruction-block walks, the columnar hot path."""
    from repro.workloads import TraceBuilder

    builder = TraceBuilder()
    block = 0
    for seg in range(60):
        period = 10 + (seg % 9)
        walk = [(block + i) * 64 for i in range(period)]
        block += period
        for _ in range(10):
            for addr in walk:
                builder.fetch(addr, insts=12, taken_branches=1)
        builder.branch_site(0x400000 + seg * 4, executions=40,
                            taken_prob=0.8)
    return builder.build()


def _time_lukewarm(traces, backend, reps):
    """Best-of-``reps`` wall time of a flushed (lukewarm) pass over
    ``traces``, IR pre-warmed."""
    import time

    from repro.sim.core import Simulator

    sim = Simulator(skylake(), backend=backend)
    for trace in traces:  # untimed: builds the IR
        sim.run(trace)
        sim.hierarchy.finish_invocation()
    best = None
    for _ in range(reps):
        sim.flush_microarch_state()
        begin = time.perf_counter()
        for trace in traces:
            sim.run(trace)
            sim.hierarchy.finish_invocation()
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None else min(best, elapsed)
    return best


def _bench_cells(reps=3):
    from repro.experiments.common import make_traces

    cells = [(GATE_CELL, "kernel", [_ifetch_kernel()])]
    workload_cfg = RunConfig(invocations=2, warmup=1, seed=1,
                             instruction_scale=1.0)
    for abbrev in ("Auth-G", "Prof-G"):
        cells.append((f"{abbrev}-lukewarm", "workload",
                      make_traces(get_profile(abbrev), workload_cfg)))

    rows = []
    for name, kind, traces in cells:
        scalar = _time_lukewarm(traces, "scalar", reps)
        columnar = _time_lukewarm(traces, "columnar", reps)
        rows.append({
            "name": name,
            "kind": kind,
            "events": int(sum(len(t) for t in traces)),
            "scalar_ms": round(scalar * 1e3, 3),
            "columnar_ms": round(columnar * 1e3, 3),
            "speedup": round(scalar / columnar, 2),
        })
    return rows


def main(argv=None):
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(
        description="columnar-vs-scalar sweep-cell throughput gate")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_engine.json")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output path for --json")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per cell")
    args = parser.parse_args(argv)

    cells = _bench_cells(reps=args.reps)
    gate = next(c for c in cells if c["name"] == GATE_CELL)
    report = {
        "bench": "backend-throughput",
        "machine": "skylake",
        "backends": list(BACKENDS),
        "cells": cells,
        "gate": {
            "cell": GATE_CELL,
            "threshold": GATE_THRESHOLD,
            "speedup": gate["speedup"],
            "pass": gate["speedup"] >= GATE_THRESHOLD,
        },
    }
    for cell in cells:
        print(f"{cell['name']:>16} [{cell['kind']:>8}] "
              f"scalar={cell['scalar_ms']:9.2f}ms "
              f"columnar={cell['columnar_ms']:9.2f}ms "
              f"speedup={cell['speedup']:6.2f}x")
    verdict = "PASS" if report["gate"]["pass"] else "FAIL"
    print(f"gate [{GATE_CELL}]: {gate['speedup']:.2f}x "
          f">= {GATE_THRESHOLD:.1f}x required ... {verdict}")
    if args.json:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if not report["gate"]["pass"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

"""Tests of the benchmark's own code (not part of the program's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import (calibrate, checks, layers, run, spans,  # noqa: E402
                       stats, workloads)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MEASURED = workloads.Measured(pid=1, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0,
                              returncode=0)


def declared_names(section):
    return [m["name"] for m in run.declared()[section]]


def _outcome(digest="d"):
    return workloads.Outcome(measured=MEASURED, cells=3, failed_cells=0,
                             cell_windows=[(0.0, 0.001), (0.0, 0.002),
                                           (0.0, 0.003)],
                             invocations=12, digest=digest)


# -- metric names ---------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    spec = run.declared()
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric


def test_benchmark_json_lists_exactly_what_the_benchmark_reports():
    spec = run.declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.load_spec()["workloads"])
    assert set(run.end_to_end([_outcome()], setup_s=0.5)) \
        == set(declared_names("end_to_end"))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_the_workloads_name_exists():
    known = set(declared_names("per_layer") + declared_names("end_to_end"))
    for name, spec in workloads.load_spec()["workloads"].items():
        for metric in spec["moves"] + spec["stays_flat"]:
            assert metric in known, (name, metric)


# -- statistics -----------------------------------------------------------


def test_tail_leaves_ten_samples_beyond_it():
    values = list(range(1, 41))  # 40 samples
    value, percentile = stats.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == 75.0
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# -- host-speed scaling ---------------------------------------------------


def test_scale_is_the_mean_rate_of_the_samples_in_the_window():
    speed = calibrate.HostSpeed([0, 1])
    speed.samples = [(1.0, 0, 0.5), (2.0, 1, 1.0), (3.0, 0, 1.5),
                     (9.0, 1, 2.0)]
    assert speed.scale(0.5, 3.5) == pytest.approx(1.0)
    assert speed.scale(0.5, 3.5, cpu=0) == pytest.approx(1.0)
    assert speed.scale(1.5, 2.5, cpu=0) in (0.5, 1.5)  # nearest sample
    assert speed.scale(8.0, 10.0) == pytest.approx(2.0)


def test_end_to_end_times_are_scaled_per_command_and_per_cell():
    fast, slow = _outcome(), _outcome()
    slow.measured = workloads.Measured(pid=1, wall_s=2.0, cpu_s=2.0,
                                       peak_rss_mb=1.0, returncode=0)
    slow.cell_windows = [(0.0, 2 * end) for _start, end in fast.cell_windows]
    slow.scale, slow.cell_scales = 0.5, [0.5, 0.5, 0.5]
    unscaled = run.end_to_end([fast], setup_s=0.5)
    scaled = run.end_to_end([slow, slow], setup_s=0.5)
    for name in ("wall_s", "cpu_s", "cell_ms_p50", "cell_ms_tail",
                 "inv_per_s"):
        assert scaled[name] == pytest.approx(unscaled[name]), name


def test_host_speed_sampler_stops_and_leaves_the_affinity_alone():
    before = os.sched_getaffinity(0)
    with calibrate.HostSpeed(calibrate.command_cpus(2)) as speed:
        deadline = time.perf_counter() + 5.0
        while len(speed.samples) < 3 and time.perf_counter() < deadline:
            time.sleep(calibrate.PERIOD_S)
    assert not speed._thread.is_alive()
    assert len(speed.samples) >= 3
    assert all(rate > 0 for _at, _cpu, rate in speed.samples)
    assert os.sched_getaffinity(0) == before


# -- self-time accounting -------------------------------------------------


def _span(sid, name, start, end, parent=None, pid=1, **extra):
    return {"id": sid, "name": name, "pid": pid, "parent": parent,
            "cell": None, "start": start, "end": end, **extra}


def test_self_times_plus_other_sum_to_the_traced_wall():
    synthetic = [
        _span("1-0", "startup.import", 0.0, 0.4),
        _span("1-1", "experiments.run", 0.5, 9.0),
        _span("1-2", "engine.sweep", 0.6, 8.0, parent="1-1"),
        _span("1-3", "engine.key", 0.6, 1.1, parent="1-2"),
        _span("1-4", "engine.cell", 1.2, 7.9, parent="1-2", label="a"),
        _span("1-5", "workloads.tracegen", 1.3, 3.0, parent="1-4",
              key="k", events=10),
        _span("1-6", "sim.run", 3.1, 7.0, parent="1-4", events=10,
              fetches=100, scalar=40, config="jukebox"),
        _span("1-7", "ir.compile", 3.2, 3.6, parent="1-6", events=10),
        # a pool worker's span runs beside the main process
        _span("2-0", "sim.run", 1.0, 6.0, pid=2, events=5, fetches=10,
              scalar=10, config="perfect"),
    ]
    wall = 10.0
    metrics = layers.per_layer_metrics(synthetic, [], main_pid=1,
                                       traced_wall_s=wall,
                                       untraced_wall_s=9.5, workers=1)
    rows = layers.layer_rows(synthetic, main_pid=1)
    main_total = sum(row["main"] for row in rows.values())
    assert main_total + metrics["other"] == pytest.approx(wall, abs=1e-12)
    assert metrics["ir.compile_s"] == pytest.approx(0.4)
    assert metrics["sim.run_s"] == pytest.approx(3.9 - 0.4 + 5.0)
    assert metrics["sim.scalar_fetch_share.jukebox"] == pytest.approx(0.4)
    assert metrics["sim.scalar_fetch_share.perfect"] == pytest.approx(1.0)
    assert metrics["bench.trace_overhead_s"] == pytest.approx(0.5)
    assert set(metrics) == set(declared_names("per_layer"))
    table = layers.format_table(synthetic, 1, wall)
    assert "other" in table and "traced wall" in table


def test_pool_overhead_excludes_compute_and_queueing():
    events = [{"kind": "sweep.begin", "t": 0.0},
              {"kind": "executor.dispatch", "t": 0.1, "index": 0},
              {"kind": "executor.dispatch", "t": 0.1, "index": 1},
              {"kind": "executor.harvest", "t": 2.2, "index": 0, "ok": True},
              {"kind": "executor.harvest", "t": 4.3, "index": 1, "ok": True},
              {"kind": "sweep.end", "t": 4.4}]
    cells = [_span("5-0", "engine.cell", 0.2, 2.0, pid=5, index=0),
             _span("5-1", "engine.cell", 2.1, 4.0, pid=5, index=1)]
    overhead, share = layers.pool_overheads(cells, events, main_pid=1,
                                            workers=1)
    # (0.2-0.1)+(2.2-2.0) for the first, (2.1-2.0)+(4.3-4.0) for the second
    assert overhead == pytest.approx(0.3 + 0.4)
    assert share == pytest.approx(3.7 / 4.2)
    assert layers.pool_overheads(cells, events, main_pid=5, workers=1) \
        == (0.0, 0.0)


# -- wrappers -------------------------------------------------------------


def _bindings():
    """Every name the tracer rebinds, mapped to the object it holds."""
    found = {}
    for path, method, _name in spans.METHOD_SPANS:
        cls = spans._resolve(path)
        found[(cls, method)] = cls.__dict__[method]
    for cls in spans.coldstart_models():
        found[(cls, "cold_start")] = cls.__dict__["cold_start"]
    hierarchy = spans._resolve("repro.sim.hierarchy:MemoryHierarchy")
    found[(hierarchy, "access_instr")] = hierarchy.__dict__["access_instr"]
    targets = [spans._resolve(path) for path, _n in spans.FUNCTION_SPANS]
    targets.append(spans._resolve("repro.engine.executors:execute_job"))
    targets.append(spans._resolve("repro.engine.resilience:execute_task"))
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if any(value is target for target in targets):
                found[(module, attr)] = value
    return found


def _tiny_cell(config="baseline"):
    from repro.engine.job import Job
    from repro.experiments.common import RunConfig
    from repro.sim.params import skylake
    from repro.workloads.suite import get_profile

    cfg = RunConfig(invocations=2, warmup=1, instruction_scale=0.02)
    return Job.make(get_profile("Fib-G"), skylake(), cfg, config)


@pytest.fixture(scope="module")
def tiny():
    """A cheap cell and its result."""
    from repro.engine.executors import execute_job

    job = _tiny_cell()
    return job, execute_job(job)


def test_traced_run_records_spans_and_restores_every_original(tmp_path):
    from repro import engine
    from repro.fleet.config import FleetConfig
    from repro.fleet.region import simulate_region

    before = _bindings()
    with spans.Tracing() as tracing:
        with engine.configure(cache_dir=tmp_path / "cache"):
            engine.sweep([_tiny_cell("jukebox")])
        simulate_region(FleetConfig(nodes=1, instances=4, functions=2,
                                    duration_ms=200.0), shards=1)
        recorded = {s["name"] for s in tracing.recorder.spans}
    after = _bindings()
    assert set(before) == set(after)
    for key, original in before.items():
        assert after[key] is original, key
    assert {"engine.sweep", "engine.key", "engine.cache_get",
            "engine.cache_put", "engine.cell", "workloads.tracegen",
            "ir.compile", "sim.run", "core.jukebox", "server.run",
            "fleet.plan", "fleet.aggregate"} <= recorded


# -- output checks reject doctored results --------------------------------


def test_digest_checks_reject_a_flipped_or_doctored_digest(monkeypatch):
    class Stub:
        name, seed = "fig10-cold", 1

        def final_checks(self):
            return []

    good = _outcome(workloads.load_digests()["fig10-cold"]["1"])
    assert all(c.ok for c in run.run_checks(Stub(), [good, good]))
    flipped = _outcome("0" * 64)
    assert not all(c.ok for c in run.run_checks(Stub(), [good, flipped]))
    monkeypatch.setattr(workloads, "load_digests",
                        lambda: {"fig10-cold": {"1": "0" * 64}})
    assert not all(c.ok for c in run.run_checks(Stub(), [good]))
    # A seed with none committed is compared within its run only.
    Stub.seed = 2
    assert all(c.ok for c in run.run_checks(Stub(), [good]))


def test_digests_are_committed_for_every_workload():
    spec = workloads.load_spec()
    table = workloads.load_digests()
    assert list(table) == list(spec["workloads"])
    for digests in table.values():
        assert {str(spec["default_seed"]), str(spec["held_out_seed"])} \
            <= set(digests)
        assert all(re.fullmatch(r"[0-9a-f]{64}", d)
                   for d in digests.values())


def test_conservation_rejects_a_leaking_node():
    node = {"node": 0, "arrivals": 10, "invocations": 8, "dropped": 2}
    region = {"config": {"arrival": "poisson", "jukebox": False},
              "node_results": [node]}
    assert checks.conservation([region]).ok
    broken = copy.deepcopy(region)
    broken["node_results"][0]["dropped"] = 1
    assert not checks.conservation([region, broken]).ok
    assert not checks.conservation([]).ok


def test_scalar_resimulation_rejects_a_doctored_cell(tiny):
    job, value = tiny
    assert checks.scalar_resimulation([(job, True, value)], seed=0).ok
    doctored = copy.deepcopy(value)
    doctored.results[0].instructions += 1
    assert not checks.scalar_resimulation([(job, True, doctored)], 0).ok
    assert not checks.scalar_resimulation([(job, False, None)], 0).ok
    assert checks.results_digest([(job, True, value)]) \
        != checks.results_digest([(job, True, doctored)])


def _fake_command(directory, report, simulated, hits, cells=9):
    directory.mkdir()
    record = {"report": report, "error": None,
              "engine": {"cells": cells, "cache_hits": hits,
                         "simulated": simulated, "failures": 0}}
    (directory / "stdout").write_text(json.dumps([record]))


def test_sweep_checks_reject_an_unsimulated_or_unstored_cell(tmp_path, tiny):
    from repro.engine.cache import ResultCache

    job, value = tiny
    workload = workloads.make("fig10-cold", ROOT, tmp_path, seed=1)
    workload._jobs = [job]

    def checks_of(name, simulated, stored):
        directory = tmp_path / name
        _fake_command(directory, "table", simulated=simulated, hits=0,
                      cells=1)
        if stored:
            ResultCache(directory / "cache").put(job.key(), value)
        return workload.collect(directory, MEASURED).checks

    assert all(c.ok for c in checks_of("good", simulated=1, stored=True))
    assert not all(c.ok for c in checks_of("skipped", simulated=0,
                                           stored=True))
    assert not all(c.ok for c in checks_of("unstored", simulated=1,
                                           stored=False))


def _warm_workload(tmp_path, report):
    workload = workloads.make("fig10-warm", ROOT, tmp_path, seed=1)
    workload.fill = {"report": report}
    workload.results = []
    return workload


def test_warm_checks_reject_a_simulated_cell_or_a_changed_report(tmp_path):
    workload = _warm_workload(tmp_path, "table")
    good = tmp_path / "good"
    _fake_command(good, "table", simulated=0, hits=9)
    assert all(c.ok for c in workload.collect(good, MEASURED).checks)
    resimulated = tmp_path / "resimulated"
    _fake_command(resimulated, "table", simulated=1, hits=8)
    assert not all(c.ok for c in workload.collect(resimulated,
                                                  MEASURED).checks)
    changed = tmp_path / "changed"
    _fake_command(changed, "tab1e", simulated=0, hits=9)
    assert not all(c.ok for c in workload.collect(changed, MEASURED).checks)


def test_warm_final_check_rejects_a_changed_cache(tmp_path, tiny):
    from repro.engine.cache import ResultCache

    job, value = tiny
    workload = workloads.make("fig10-warm", ROOT, tmp_path, seed=1)
    workload._jobs = [job]
    workload.cache = tmp_path / "cache"
    ResultCache(workload.cache).put(job.key(), value)
    workload.fill_digest = checks.results_digest(
        checks.cached_results([job], workload.cache))
    assert all(c.ok for c in workload.final_checks())
    doctored = copy.deepcopy(value)
    doctored.results[0].instructions += 1
    ResultCache(workload.cache).put(job.key(), doctored)
    assert not any(c.ok for c in workload.final_checks())

"""Per-layer metrics from one traced command: self times and counts.

A span's self time is its duration minus the durations of its child
spans (children nest strictly inside their parent, in the same process).
Each span name is charged to one layer row.  Rows of the command's main
process plus ``other`` sum to the traced wall time; pool workers run
beside the main process, so their self times are reported per layer but
are not part of that sum.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Span name -> the per-layer time metric its self time is charged to.
TIME_ROWS: Dict[str, str] = {
    "startup.import": "startup.import_s",
    "experiments.run": "experiments.aggregate_s",
    "engine.sweep": "engine.sweep_s",
    "engine.key": "engine.key_s",
    "engine.cache_get": "engine.cache_get_s",
    "engine.cache_put": "engine.cache_put_s",
    "engine.cell": "experiments.config_s",
    "workloads.tracegen": "workloads.tracegen_s",
    "ir.compile": "ir.compile_s",
    "sim.run": "sim.run_s",
    "core.jukebox": "core.jukebox_s",
    "coldstart.charge": "coldstart.charge_s",
    "server.run": "server.run_s",
    "fleet.plan": "fleet.plan_s",
    "fleet.aggregate": "fleet.aggregate_s",
}

#: Simulation protocols with their own ``sim.*.<config>`` metrics.
SIM_CONFIGS = ("reference", "baseline", "jukebox", "perfect")


def self_times(spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    result = dict(own)
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in result:
            result[parent] -= own[span["id"]]
    return result


def layer_rows(spans: Sequence[Mapping[str, Any]], main_pid: int
               ) -> Dict[str, Dict[str, float]]:
    """Time metric -> ``{"main", "workers", "count"}`` self-time totals."""
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, float]] = {
        metric: {"main": 0.0, "workers": 0.0, "count": 0}
        for metric in dict.fromkeys(TIME_ROWS.values())}
    for span in spans:
        row = rows[TIME_ROWS[span["name"]]]
        side = "main" if span["pid"] == main_pid else "workers"
        row[side] += selfs[span["id"]]
        row["count"] += 1
    return rows


def _parse_engine_sweeps(events: Iterable[Mapping[str, Any]]
                         ) -> List[Dict[str, Any]]:
    """The engine's sweep batches with per-task dispatch/harvest times."""
    sweeps: List[Dict[str, Any]] = []
    current = None
    for event in events:
        kind = event.get("kind")
        if kind == "sweep.begin":
            current = {"begin": event["t"], "end": float("inf"),
                       "dispatch": {}, "harvest": {}}
            sweeps.append(current)
        elif current is None:
            continue
        elif kind == "executor.dispatch":
            current["dispatch"][event["index"]] = event["t"]
        elif kind == "executor.harvest":
            current["harvest"][event["index"]] = event["t"]
        elif kind == "sweep.end":
            current["end"] = event["t"]
            current = None
    return sweeps


def pool_overheads(cells: Sequence[Mapping[str, Any]],
                   events: Sequence[Mapping[str, Any]], main_pid: int,
                   workers: int) -> Tuple[float, float]:
    """``(dispatch_s, worker_busy_share)`` of cells run by pool workers.

    A pooled cell's dispatch overhead is the part of its dispatch-to-
    harvest interval spent neither computing nor queued behind an earlier
    cell of the same worker: from dispatch (or that worker's previous
    cell) to the start of compute, plus from the end of compute to the
    parent's harvest.  Busy share is worker compute over ``workers``
    times the pool's dispatch-to-last-harvest wall.  Cells run in the
    main process (serial executors) cross no dispatch boundary and
    contribute nothing.
    """
    pooled = [c for c in cells if c["pid"] != main_pid]
    if not pooled:
        return 0.0, 0.0
    overhead = busy = pool_wall = 0.0
    for sweep in _parse_engine_sweeps(events):
        members = sorted((c for c in pooled
                          if sweep["begin"] <= c["start"] <= sweep["end"]),
                         key=lambda c: c["start"])
        if not members or not sweep["dispatch"] or not sweep["harvest"]:
            continue
        pool_wall += (max(sweep["harvest"].values())
                      - min(sweep["dispatch"].values()))
        previous_end: Dict[int, float] = {}
        for cell in members:
            busy += cell["end"] - cell["start"]
            dispatched = sweep["dispatch"].get(cell.get("index"))
            harvested = sweep["harvest"].get(cell.get("index"))
            if dispatched is None or harvested is None:
                continue
            ready = max(dispatched, previous_end.get(cell["pid"], dispatched))
            overhead += (cell["start"] - ready) + (harvested - cell["end"])
            previous_end[cell["pid"]] = cell["end"]
    share = busy / (workers * pool_wall) if pool_wall > 0 else 0.0
    return overhead, share


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(spans: Sequence[Mapping[str, Any]],
                      engine_events: Sequence[Mapping[str, Any]],
                      main_pid: int, traced_wall_s: float,
                      untraced_wall_s: float, workers: int
                      ) -> Dict[str, float]:
    """Every per-layer metric, by name, for one traced command."""
    rows = layer_rows(spans, main_pid)
    selfs = self_times(spans)
    metrics: Dict[str, float] = {}
    for metric, row in rows.items():
        metrics[metric] = row["main"] + row["workers"]
    by_name: Dict[str, List[Mapping[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    keys = by_name["engine.key"]
    main_keys = [s for s in keys if s["pid"] == main_pid]
    metrics["engine.first_key_s"] = (selfs[main_keys[0]["id"]]
                                     if main_keys else 0.0)
    metrics["engine.keys"] = len(keys)
    gets = by_name["engine.cache_get"]
    metrics["engine.hits"] = sum(1 for s in gets if s.get("hit"))
    metrics["engine.misses"] = sum(1 for s in gets if not s.get("hit"))
    puts = by_name["engine.cache_put"]
    metrics["engine.stores"] = sum(1 for s in puts if s.get("stored"))
    metrics["engine.entry_bytes"] = sum(s.get("bytes", 0) for s in puts)
    cells = by_name["engine.cell"]
    metrics["engine.dispatch_s"], metrics["engine.worker_busy_share"] = (
        pool_overheads(cells, engine_events, main_pid, workers))

    label_of = {c["id"]: c.get("label", c["id"]) for c in cells}
    traces = by_name["workloads.tracegen"]
    sharing: Dict[str, set] = defaultdict(set)
    for span in traces:
        sharing[span["key"]].add(label_of.get(span.get("cell")))
    metrics["engine.cells_per_trace_key"] = _share(
        sum(len(c) for c in sharing.values()), len(sharing))
    metrics["workloads.traces"] = len(traces)
    trace_events = sum(s.get("events", 0) for s in traces)
    metrics["workloads.events"] = trace_events
    metrics["workloads.ns_per_event"] = 1e9 * _share(
        metrics["workloads.tracegen_s"], trace_events)
    metrics["ir.compiles"] = len(by_name["ir.compile"])

    runs = by_name["sim.run"]
    metrics["sim.invocations"] = len(runs)
    metrics["sim.ns_per_event"] = 1e9 * _share(
        metrics["sim.run_s"], sum(s.get("events", 0) for s in runs))
    metrics["sim.scalar_fetch_share"] = _share(
        sum(s.get("scalar", 0) for s in runs),
        sum(s.get("fetches", 0) for s in runs))
    for config in SIM_CONFIGS:
        mine = [s for s in runs if s.get("config") == config]
        metrics[f"sim.run_s.{config}"] = sum(selfs[s["id"]] for s in mine)
        metrics[f"sim.scalar_fetch_share.{config}"] = _share(
            sum(s.get("scalar", 0) for s in mine),
            sum(s.get("fetches", 0) for s in mine))

    metrics["coldstart.charges"] = len(by_name["coldstart.charge"])
    arrivals = sum(s.get("arrivals", 0) for s in by_name["server.run"])
    metrics["server.arrivals"] = arrivals
    metrics["server.ns_per_arrival"] = 1e9 * _share(
        metrics["server.run_s"], arrivals)
    metrics["obs.events"] = len(engine_events)
    metrics["bench.spans"] = len(spans)
    metrics["other"] = traced_wall_s - sum(
        row["main"] for row in rows.values())
    metrics["bench.traced_wall_s"] = traced_wall_s
    metrics["bench.trace_overhead_s"] = traced_wall_s - untraced_wall_s
    return {name: float(value) for name, value in metrics.items()}


def format_table(spans: Sequence[Mapping[str, Any]], main_pid: int,
                 traced_wall_s: float) -> str:
    """The self-time table: main-process rows plus ``other`` sum to the
    traced wall; the workers column shows pool-worker self time."""
    rows = layer_rows(spans, main_pid)
    ordered = sorted(rows.items(),
                     key=lambda kv: -(kv[1]["main"] + kv[1]["workers"]))
    lines = [f"{'layer':26s} {'main s':>9s} {'share':>6s} "
             f"{'workers s':>10s} {'spans':>8s}"]
    for metric, row in ordered:
        if not row["count"]:
            continue
        lines.append(f"{metric:26s} {row['main']:9.3f} "
                     f"{_share(row['main'], traced_wall_s):6.1%} "
                     f"{row['workers']:10.3f} {int(row['count']):8d}")
    other = traced_wall_s - sum(row["main"] for row in rows.values())
    lines.append(f"{'other':26s} {other:9.3f} "
                 f"{_share(other, traced_wall_s):6.1%}")
    lines.append(f"{'traced wall':26s} {traced_wall_s:9.3f}")
    return "\n".join(lines)

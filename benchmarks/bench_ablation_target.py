"""Ablation: Jukebox prefetching into the L2 vs. into the L1-I.

Sec. 3.1 motivates the L2 target: instruction footprints (300-800KB) fit
comfortably in a 1MB L2 but are 10-25x the L1-I capacity, so bulk replay
into the L1-I thrashes itself.  This bench quantifies that design choice.
"""

from conftest import run_once

from repro.analysis.metrics import geomean_speedup, speedup
from repro.analysis.report import format_table
from repro.core.jukebox import Jukebox
from repro.experiments.common import make_traces, run_config
from repro.sim.core import Simulator
from repro.sim.core import simulate
from repro.sim.params import skylake

FUNCTIONS = ["Email-P", "Pay-N", "ProdL-G", "Auth-G"]


def _run_with_target(profile, machine, cfg, target):
    sim = Simulator(machine, backend=cfg.backend)
    if target == "l1i":
        # Non-allocating L1-only prefetches: an evicted line is gone.
        sim.hierarchy.l1i_fill_allocates_lower = False
    jukebox = Jukebox(machine.jukebox, replay_target=target)
    cycles = 0.0
    for i, trace in enumerate(make_traces(profile, cfg)):
        sim.flush_microarch_state()
        jukebox.begin_invocation(sim.hierarchy)
        result = simulate(trace, sim=sim)
        jukebox.end_invocation(sim.hierarchy, result)
        if i >= cfg.warmup:
            cycles += result.cycles
    return cycles


def _sweep(cfg):
    from repro.workloads.suite import get_profile
    machine = skylake()
    rows = []
    l2_speedups, l1i_speedups = [], []
    for abbrev in FUNCTIONS:
        profile = get_profile(abbrev)
        base = run_config(profile, machine, cfg, "baseline").cycles
        s_l2 = speedup(base, _run_with_target(profile, machine, cfg, "l2"))
        s_l1i = speedup(base, _run_with_target(profile, machine, cfg, "l1i"))
        l2_speedups.append(s_l2)
        l1i_speedups.append(s_l1i)
        rows.append([abbrev, f"{s_l2 * 100:+.1f}%", f"{s_l1i * 100:+.1f}%"])
    rows.append(["GEOMEAN",
                 f"{geomean_speedup(l2_speedups) * 100:+.1f}%",
                 f"{geomean_speedup(l1i_speedups) * 100:+.1f}%"])
    return rows, l2_speedups, l1i_speedups


def test_ablation_prefetch_target(benchmark, bench_cfg, report):
    rows, l2_speedups, l1i_speedups = run_once(benchmark, _sweep, bench_cfg)
    report("ablation_target", format_table(
        ["Function", "replay into L2", "replay into L1-I"], rows,
        title="Ablation: Jukebox replay target (Sec. 3.1 design choice)"))
    # The L2 target must win decisively for every function.
    for s_l2, s_l1i in zip(l2_speedups, l1i_speedups):
        assert s_l2 > s_l1i + 0.03

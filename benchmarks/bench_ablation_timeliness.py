"""Ablation: replay-engine bandwidth vs. timeliness.

The replay engine streams prefetches at DRAM row-hit bandwidth, decoupled
from the core (Sec. 3.3).  Throttling the engine delays the replay front;
once the demand stream catches up, covered misses degrade into in-flight
merges and the speedup collapses -- the quantitative version of "prefetches
must arrive just in time" (Sec. 3.1).
"""

from conftest import run_once

from repro.analysis.metrics import speedup
from repro.analysis.report import format_table
from repro.core.jukebox import Jukebox
from repro.experiments.common import make_traces, run_config
from repro.sim.core import Simulator
from repro.sim.params import skylake
from repro.workloads.suite import get_profile

SHARES = (1.0, 0.5, 0.25, 0.1, 0.02)
FUNCTION = "Email-P"


def _run_with_share(profile, machine, cfg, share):
    sim = Simulator(machine, backend=cfg.backend)
    jukebox = Jukebox(machine.jukebox, replay_bandwidth_share=share)
    cycles = 0.0
    late = 0
    covered = 0
    for i, trace in enumerate(make_traces(profile, cfg)):
        sim.flush_microarch_state()
        jukebox.begin_invocation(sim.hierarchy)
        result = sim.run(trace)
        rep = jukebox.end_invocation(sim.hierarchy, result)
        if i >= cfg.warmup:
            cycles += result.cycles
            late += rep.replay.covered_late
            covered += rep.replay.covered
    return cycles, late, covered


def _sweep(cfg):
    machine = skylake()
    profile = get_profile(FUNCTION)
    base = run_config(profile, machine, cfg, "baseline").cycles
    rows = []
    speedups = []
    for share in SHARES:
        cycles, late, covered = _run_with_share(profile, machine, cfg, share)
        s = speedup(base, cycles)
        speedups.append(s)
        late_frac = late / max(1, covered)
        rows.append([f"{share:.2f}", f"{s * 100:+.1f}%",
                     f"{late_frac * 100:.0f}%"])
    return rows, speedups


def test_ablation_replay_bandwidth(benchmark, bench_cfg, report):
    rows, speedups = run_once(benchmark, _sweep, bench_cfg)
    report("ablation_timeliness", format_table(
        ["bandwidth share", "speedup", "late coverage"], rows,
        title=f"Ablation: replay-engine bandwidth ({FUNCTION})"))
    # Full bandwidth must be near-best; a starved engine must lose most of
    # the benefit.
    assert speedups[0] > 0.95 * max(speedups)
    assert speedups[-1] < 0.5 * speedups[0]
    # A starved engine degrades toward (or below) the no-prefetch baseline.
    assert speedups[0] > speedups[2] > speedups[-1] - 0.02

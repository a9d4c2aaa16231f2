#!/usr/bin/env python3
"""Quickstart: the lukewarm phenomenon and Jukebox in ~60 lines.

Simulates one serverless function (Auth-G from Table 2) in the paper's
three key configurations on the Skylake-like machine:

1. reference   -- warm back-to-back invocations;
2. lukewarm    -- all microarchitectural state flushed between invocations
                  (the interleaved baseline of Sec. 5.2);
3. jukebox     -- lukewarm, plus Jukebox record/replay (Sec. 3).

Run:  python examples/quickstart.py
"""

from repro import Jukebox, Simulator, skylake
from repro.analysis import format_table, speedup
from repro.workloads import FunctionModel, get_profile

INVOCATIONS = 5


def run_sequence(flush: bool, with_jukebox: bool) -> float:
    """Return the cycles of the last (steady-state) invocation."""
    machine = skylake()
    sim = Simulator(machine)
    jukebox = Jukebox(machine.jukebox) if with_jukebox else None
    model = FunctionModel(get_profile("Auth-G"), seed=42)

    cycles = 0.0
    for i in range(INVOCATIONS):
        if flush:
            sim.flush_microarch_state()       # the lukewarm condition
        if jukebox is not None:
            jukebox.begin_invocation(sim.hierarchy)
        result = sim.run(model.invocation_trace(i))
        if jukebox is not None:
            report = jukebox.end_invocation(sim.hierarchy, result)
            if i == INVOCATIONS - 1:
                replay = report.replay
                print(f"  jukebox replay: {replay.lines_prefetched} lines "
                      f"prefetched, {replay.covered} L2 misses covered, "
                      f"{replay.overpredicted} overpredicted, "
                      f"{report.recorded_bytes}B metadata recorded")
        cycles = result.cycles
        print(f"  invocation {i}: CPI={result.cpi:.3f} "
              f"(L2-I MPKI {result.mpki('l2', 'inst'):5.1f}, "
              f"LLC-I MPKI {result.mpki('llc', 'inst'):5.1f})")
    return cycles


def main() -> None:
    print("reference (warm back-to-back):")
    reference = run_sequence(flush=False, with_jukebox=False)
    print("\nlukewarm baseline (state flushed between invocations):")
    baseline = run_sequence(flush=True, with_jukebox=False)
    print("\nlukewarm + Jukebox:")
    jukebox = run_sequence(flush=True, with_jukebox=True)

    rows = [
        ["reference", f"{reference:,.0f}", "--"],
        ["lukewarm baseline", f"{baseline:,.0f}",
         f"{(baseline / reference - 1) * 100:+.0f}% vs. reference"],
        ["lukewarm + Jukebox", f"{jukebox:,.0f}",
         f"{speedup(baseline, jukebox) * 100:+.1f}% vs. baseline"],
    ]
    print()
    print(format_table(["Configuration", "cycles/invocation", "delta"], rows,
                       title="Steady-state comparison (Auth-G)"))
    print("\nPaper reference points: interleaving costs 31-114% CPI;"
          "\nJukebox recovers +18.7% on average (+29.5% on Auth-G).")


if __name__ == "__main__":
    main()

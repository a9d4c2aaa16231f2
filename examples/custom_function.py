#!/usr/bin/env python3
"""Bring your own function: model a workload that is not in Table 2.

Shows the full modeling workflow a downstream user follows:

1. describe the function with a :class:`FunctionProfile` (footprint,
   instruction volume, language-like density, loop-heaviness);
2. sanity-check the generated traces against the description (footprint,
   Fig. 6b-style commonality);
3. predict its lukewarm penalty and how much Jukebox would recover;
4. size the Jukebox metadata budget for it (a per-function Fig. 9).

The example models a hypothetical Rust image-thumbnailing function: a
compact dense binary (Go-like layout) but compute-heavy (AES-like loops).

Run:  python examples/custom_function.py
"""

from repro import JukeboxParams, Simulator, skylake
from repro.analysis import format_table, pairwise_jaccard, speedup
from repro.experiments.common import RunConfig, run_config
from repro.units import KB
from repro.workloads import FunctionModel, FunctionProfile
from repro.workloads.profiles import LANG_GO

THUMBNAIL = FunctionProfile(
    name="Thumbnail",
    abbrev="Thumb-R",
    language=LANG_GO,          # closest layout archetype: dense static binary
    application="Custom",
    footprint_kb=380,          # compact compiled code
    instructions=1_200_000,    # ~0.5ms at ~2.5 GHz and CPI ~1
    data_ws_kb=220,            # pixel buffers
    density=0.85,
    loopiness=0.65,            # convolution / resample loops
    hot_fraction=0.4,
    branch_bias=0.9,
)


def validate_model() -> None:
    model = FunctionModel(THUMBNAIL, seed=1)
    footprints = [model.footprint_blocks(i) for i in range(8)]
    sizes_kb = [len(fp) * 64 / KB for fp in footprints]
    jaccards = pairwise_jaccard(footprints)
    rows = [
        ["target footprint", f"{THUMBNAIL.footprint_kb}KB"],
        ["generated footprint", f"{min(sizes_kb):.0f}-{max(sizes_kb):.0f}KB"],
        ["cross-invocation Jaccard",
         f"{sum(jaccards) / len(jaccards):.2f} "
         f"(min {min(jaccards):.2f})"],
        ["instructions/invocation",
         f"{model.invocation_trace(0).total_instructions:,}"],
    ]
    print(format_table(["Property", "Value"], rows,
                       title="Model validation (Thumb-R)"))
    print()


def predict_lukewarm_behaviour() -> None:
    cfg = RunConfig(invocations=4, warmup=1)
    machine = skylake()
    reference = Simulator(machine)
    model = FunctionModel(THUMBNAIL, seed=1)
    warm_cpi = 0.0
    for i in range(3):
        warm_cpi = reference.run(model.invocation_trace(i)).cpi

    base = run_config(THUMBNAIL, machine, cfg, "baseline")
    jb = run_config(THUMBNAIL, machine, cfg, "jukebox")
    report = jb.jukebox_reports[-1]
    rows = [
        ["warm CPI", f"{warm_cpi:.2f}"],
        ["lukewarm CPI", f"{base.cpi:.2f} "
         f"({(base.cpi / warm_cpi - 1) * 100:+.0f}%)"],
        ["Jukebox speedup", f"{speedup(base.cycles, jb.cycles) * 100:+.1f}%"],
        ["metadata recorded", f"{report.recorded_bytes / KB:.1f}KB "
         f"({'truncated' if report.recorded_dropped else 'fits 16KB'})"],
        ["L2 misses covered",
         f"{report.replay.covered} of ~{report.replay.lines_prefetched}"],
    ]
    print(format_table(["Metric", "Value"], rows,
                       title="Lukewarm prediction (Skylake-like)"))
    print()


def size_metadata_budget() -> None:
    cfg = RunConfig(invocations=4, warmup=1)
    machine = skylake()
    base = run_config(THUMBNAIL, machine, cfg, "baseline")
    rows = []
    for budget in (4 * KB, 8 * KB, 16 * KB):
        m = machine.with_jukebox(JukeboxParams(metadata_bytes=budget))
        jb = run_config(THUMBNAIL, m, cfg, "jukebox")
        rows.append([f"{budget // KB}KB",
                     f"{speedup(base.cycles, jb.cycles) * 100:+.1f}%"])
    print(format_table(["metadata budget", "speedup"], rows,
                       title="Per-function Fig. 9: metadata sizing"))
    print("\nA compact dense function saturates below the paper's 16KB "
          "default,\nso an OS could assign it a smaller buffer "
          "(Sec. 5.1's dynamic sizing).")


def main() -> None:
    validate_model()
    predict_lukewarm_behaviour()
    size_metadata_budget()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Server-level characterization: why warm functions run lukewarm.

Reproduces the arithmetic of Sec. 2.2 with the server-level substrate:

* hundreds of warm instances on one 10-core server;
* per-instance inter-arrival times of seconds (Poisson/lognormal);
* the resulting *interleaving degree* -- how many other invocations
  execute between two consecutive invocations of the same instance;
* the keep-alive economics (warm rate vs. memory held);
* the CPI consequence, via the graded stressor of Fig. 1.

Run:  python examples/server_characterization.py
"""

from repro.analysis import format_table
from repro.server import ServerConfig, ServerSimulator, Stressor
from repro.sim import Simulator, broadwell
from repro.units import MB
from repro.workloads import FunctionModel, SUITE, get_profile
from repro.workloads.arrival import LognormalArrivals


def interleaving_study() -> None:
    """Interleaving degree as a function of warm-instance count."""
    rows = []
    for instances in (10, 100, 400):
        server = ServerSimulator(ServerConfig(cores=10, ttl_minutes=30),
                                 seed=7)
        server.populate(
            SUITE, instances,
            lambda i, p: LognormalArrivals(mean_iat_ms=2000.0, sigma=1.0,
                                           seed=100 + i))
        stats = server.run(duration_ms=60_000.0)
        rows.append([
            instances,
            stats.invocations,
            f"{stats.mean_interleaving():.0f}",
            f"{stats.interleaving_percentile(95):.0f}",
            f"{stats.peak_memory_bytes / MB:.0f}MB",
            f"{stats.jukebox_metadata_bytes / MB:.1f}MB",
        ])
    print(format_table(
        ["warm instances", "invocations/min", "mean interleave",
         "p95 interleave", "instance memory", "Jukebox metadata"],
        rows,
        title=("Interleaving on a 10-core server (60s, ~2s mean IAT "
               "per instance)")))
    print("Sec. 2.2: with thousands of warm instances, hundreds to "
          "thousands of\nunrelated invocations interleave between two "
          "invocations of one function.\n")


def keepalive_study() -> None:
    """Warm rate vs. keep-alive TTL for slow-arriving instances."""
    rows = []
    for ttl_minutes in (0.05, 0.5, 5.0, 60.0):
        server = ServerSimulator(
            ServerConfig(cores=10, ttl_minutes=ttl_minutes), seed=3)
        server.populate(
            SUITE, 60,
            lambda i, p: LognormalArrivals(mean_iat_ms=8000.0, sigma=1.2,
                                           seed=500 + i))
        stats = server.run(duration_ms=120_000.0)
        rows.append([f"{ttl_minutes:g} min",
                     f"{stats.warm_fraction * 100:.1f}%",
                     stats.evictions])
    print(format_table(
        ["keep-alive TTL", "warm invocations", "evictions"], rows,
        title="Keep-alive policy vs. warm rate (60 instances, ~8s IAT)"))
    print("Every instance's first invocation is a cold start, so even a "
          "60-minute\nTTL stays below 100% warm over two minutes.")
    print("Providers keep instances warm 5-60 minutes (Sec. 2.1): long "
          "TTLs buy\nwarm starts at the cost of resident memory -- which "
          "is exactly what\ncreates the lukewarm population.\n")


def cpi_vs_iat_study() -> None:
    """The microarchitectural price of the idle gap (Fig. 1 in miniature)."""
    profile = get_profile("Auth-P")
    model = FunctionModel(profile, seed=11)
    traces = [model.invocation_trace(i) for i in range(4)]
    rows = []
    for iat_ms in (0.0, 10.0, 100.0, 1000.0):
        stressor = Stressor(load=0.5, seed=1)
        sim = Simulator(broadwell())
        cpi = 0.0
        for i, trace in enumerate(traces):
            if iat_ms > 0:
                stressor.idle_gap(sim, iat_ms)
                stressor.apply_contention(sim)
            result = sim.run(trace)
            if i == len(traces) - 1:
                cpi = result.cpi
        rows.append([int(iat_ms), f"{cpi:.2f}"])
    baseline = float(rows[0][1])
    for row in rows:
        row.append(f"{float(row[1]) / baseline * 100:.0f}%")
    print(format_table(
        ["IAT [ms]", "CPI", "vs. back-to-back"], rows,
        title=f"{profile.abbrev} CPI vs. inter-arrival time at 50% load"))
    print("Fig. 1: the longer an instance idles on a busy server, the more "
          "of its\nmicroarchitectural state is gone when the next request "
          "arrives.")


def main() -> None:
    interleaving_study()
    keepalive_study()
    cpi_vs_iat_study()


if __name__ == "__main__":
    main()

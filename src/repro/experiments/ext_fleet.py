"""Extension: region-scale fleet capacity with and without Jukebox.

The paper's capacity claim is fleet-level: cutting frontend stalls per
invocation lets every node of a region sustain proportionally more
invocations, which compounds with keep-alive and placement policy.  This
experiment simulates a whole region (:mod:`repro.fleet`) across arrival
mixes, with Jukebox off and on, and reports the capacity uplift and tail
latency per mix plus the geomean uplift across mixes.

Every region shard is a content-addressed engine job, so the sweep is
cached, parallel under ``--jobs``, and resumes warm after a crash --
exactly like the per-figure experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.metrics import geomean
from repro.analysis.report import format_table
from repro.experiments.common import RunConfig
from repro.fleet.config import CORES_PER_NODE, FleetConfig
from repro.fleet.region import simulate_region

#: Arrival mixes swept by default (the >= 2 mixes the battery checks).
ARRIVAL_MIXES = ("poisson", "bursty", "diurnal")


@dataclass
class FleetEntry:
    """One arrival mix: the baseline and Jukebox region aggregates."""

    arrival: str
    baseline: dict
    jukebox: dict

    @property
    def capacity_uplift(self) -> float:
        base = self.baseline["capacity_inv_s"]
        return self.jukebox["capacity_inv_s"] / base - 1.0 if base else 0.0

    @property
    def p99_baseline_ms(self) -> float:
        return self.baseline["p99_latency_ms"]

    @property
    def p99_jukebox_ms(self) -> float:
        return self.jukebox["p99_latency_ms"]


@dataclass
class FleetSweepResult:
    config: FleetConfig
    shards: int
    entries: List[FleetEntry] = field(default_factory=list)

    @property
    def geomean_uplift(self) -> float:
        if not self.entries:
            return 0.0
        return geomean([1.0 + e.capacity_uplift for e in self.entries]) - 1.0


def base_fleet(cfg: RunConfig) -> FleetConfig:
    """The swept region, scaled down under ``--fast`` (reduced traces
    signal reduced region scale the same way)."""
    fast = cfg.instruction_scale < 1.0
    return FleetConfig(
        nodes=4 if fast else 8,
        instances=160 if fast else 480,
        functions=20 if fast else 40,
        duration_ms=20_000.0 if fast else 60_000.0,
        mean_iat_ms=500.0,
        seed=cfg.seed,
    )


def run(cfg: Optional[RunConfig] = None,
        functions: Optional[Sequence[str]] = None,
        fleet: Optional[FleetConfig] = None,
        arrivals: Sequence[str] = ARRIVAL_MIXES,
        shards: int = 2) -> FleetSweepResult:
    """Sweep (arrival mix x jukebox) over one region.

    ``functions`` is accepted for runner-signature compatibility but
    ignored: region functions are the whole Table 2 suite by design.
    """
    cfg = cfg if cfg is not None else RunConfig()
    fleet = fleet if fleet is not None else base_fleet(cfg)
    result = FleetSweepResult(config=fleet, shards=shards)
    for arrival in arrivals:
        base = simulate_region(fleet.replace(arrival=arrival, jukebox=False),
                               shards=shards)
        jb = simulate_region(fleet.replace(arrival=arrival, jukebox=True),
                             shards=shards)
        result.entries.append(FleetEntry(arrival=arrival,
                                         baseline=base["region"],
                                         jukebox=jb["region"]))
    return result


def render(result: FleetSweepResult) -> str:
    rows = []
    for e in result.entries:
        rows.append([
            e.arrival,
            f"{e.baseline['capacity_inv_s']:,.0f}/s",
            f"{e.jukebox['capacity_inv_s']:,.0f}/s",
            f"{e.capacity_uplift * 100:+.1f}%",
            f"{e.p99_baseline_ms:.1f}ms",
            f"{e.p99_jukebox_ms:.1f}ms",
            f"{e.baseline['drop_fraction'] * 100:.2f}%",
        ])
    rows.append(["GEOMEAN", "", "",
                 f"{result.geomean_uplift * 100:+.1f}%", "", "", ""])
    fleet = result.config
    table = format_table(
        ["Arrival mix", "capacity base", "capacity JB", "uplift",
         "p99 base", "p99 JB", "dropped"],
        rows,
        title=(f"Extension: fleet capacity with Jukebox "
               f"({fleet.nodes} nodes x {CORES_PER_NODE} cores, "
               f"{fleet.instances} instances, round-robin)"))
    summary = (f"Region-wide geomean capacity uplift "
               f"{result.geomean_uplift * 100:+.1f}% across "
               f"{len(result.entries)} arrival mixes "
               f"({result.shards} engine shards per region)")
    return f"{table}\n\n{summary}"

"""Declared reproduction bands: paper value vs. acceptable measured range.

Every headline number the paper reports is declared here once, with the
band this reproduction is expected to land in (shape-level agreement; see
DESIGN.md Sec. 5).  The bands are consumed three ways:

* the benchmark suite asserts them after regenerating each figure;
* :func:`verify` checks a set of measured values programmatically;
* EXPERIMENTS.md cites them as the acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Band:
    """One reproducible quantity: the paper's value and our tolerance."""

    key: str
    figure: str
    description: str
    paper_value: float
    low: float
    high: float
    unit: str = ""

    def check(self, measured: float) -> bool:
        return self.low <= measured <= self.high

    def describe(self, measured: Optional[float] = None) -> str:
        s = (f"{self.figure} {self.description}: paper {self.paper_value}"
             f"{self.unit}, band [{self.low}, {self.high}]{self.unit}")
        if measured is not None:
            status = "OK" if self.check(measured) else "OUT OF BAND"
            s += f", measured {measured:.3g}{self.unit} -> {status}"
        return s


#: The acceptance bands, keyed by a stable identifier.
BANDS: Dict[str, Band] = {band.key: band for band in [
    # -- Figure 1 ---------------------------------------------------------
    Band("fig1.saturation.auth_p", "Fig. 1",
         "Auth-P normalized CPI at IAT >= 1s", 2.70, 2.0, 3.4, "x"),
    Band("fig1.saturation.aes_n", "Fig. 1",
         "AES-N normalized CPI at IAT >= 1s", 2.50, 1.8, 3.2, "x"),
    # -- Figure 2 ---------------------------------------------------------
    Band("fig2.mean_cpi_increase", "Fig. 2",
         "mean interleaved CPI increase", 0.70, 0.40, 1.10),
    Band("fig2.min_cpi_increase", "Fig. 2",
         "minimum per-function CPI increase", 0.31, 0.15, 0.80),
    Band("fig2.max_cpi_increase", "Fig. 2",
         "maximum per-function CPI increase", 1.14, 0.60, 1.60),
    Band("fig2.frontend_ref", "Fig. 2",
         "front-end share of reference cycles", 0.51, 0.35, 0.65),
    Band("fig2.frontend_int", "Fig. 2",
         "front-end share of interleaved cycles", 0.55, 0.40, 0.72),
    # -- Figures 3/4 ------------------------------------------------------
    Band("fig3.latency_growth", "Fig. 3",
         "fetch-latency stall growth under interleaving", 0.94, 0.5, 1.6),
    Band("fig4.fetch_latency_share", "Fig. 4",
         "fetch-latency share of extra stall cycles", 0.56, 0.40, 0.80),
    # -- Figure 5 ---------------------------------------------------------
    Band("fig5.llc_ref_inst_mpki", "Fig. 5b",
         "reference LLC instruction MPKI", 0.0, 0.0, 2.0),
    Band("fig5.llc_int_inst_mpki", "Fig. 5b",
         "interleaved LLC instruction MPKI (mean)", 10.0, 8.0, 30.0),
    # -- Figure 6 ---------------------------------------------------------
    Band("fig6.footprint_min_kb", "Fig. 6a",
         "smallest mean instruction footprint", 300.0, 230.0, 420.0, "KB"),
    Band("fig6.footprint_max_kb", "Fig. 6a",
         "largest mean instruction footprint", 800.0, 600.0, 900.0, "KB"),
    Band("fig6.jaccard_mean", "Fig. 6b",
         "mean cross-invocation Jaccard index", 0.90, 0.88, 1.0),
    # -- Figure 8 ---------------------------------------------------------
    Band("fig8.metadata_min_kb", "Fig. 8",
         "smallest per-function metadata at 1KB regions", 9.6, 2.0, 16.0,
         "KB"),
    Band("fig8.metadata_max_kb", "Fig. 8",
         "largest per-function metadata at 1KB regions", 29.5, 14.0, 40.0,
         "KB"),
    # -- Figure 9 ---------------------------------------------------------
    Band("fig9.saturation_budget_kb", "Fig. 9",
         "metadata budget where speedup saturates", 16.0, 8.0, 16.0, "KB"),
    # -- Figure 10 --------------------------------------------------------
    Band("fig10.jukebox_geomean", "Fig. 10",
         "Jukebox geomean speedup", 0.187, 0.12, 0.27),
    Band("fig10.perfect_geomean", "Fig. 10",
         "perfect-I$ geomean speedup", 0.31, 0.22, 0.42),
    Band("fig10.max_perfect", "Fig. 10",
         "largest perfect-I$ speedup (Auth-N)", 0.46, 0.30, 0.65),
    # -- Figure 11 --------------------------------------------------------
    Band("fig11.go_coverage", "Fig. 11",
         "mean Go coverage", 0.82, 0.75, 1.0),
    Band("fig11.interp_coverage", "Fig. 11",
         "mean Python/NodeJS coverage", 0.61, 0.45, 0.95),
    Band("fig11.overprediction_mean", "Fig. 11",
         "mean overprediction rate", 0.10, 0.0, 0.20),
    # -- Figure 12 --------------------------------------------------------
    Band("fig12.overhead_mean", "Fig. 12",
         "mean memory-bandwidth overhead", 0.14, 0.02, 0.25),
    Band("fig12.overhead_max", "Fig. 12",
         "worst-case memory-bandwidth overhead", 0.23, 0.05, 0.40),
    # -- Figure 13 --------------------------------------------------------
    Band("fig13.pif", "Fig. 13", "PIF geomean speedup", 0.024, -0.02, 0.10),
    Band("fig13.pif_ideal", "Fig. 13",
         "PIF-ideal geomean speedup", 0.067, 0.03, 0.16),
    # -- Table 3 ----------------------------------------------------------
    Band("table3.skylake_l2", "Table 3",
         "Skylake L2-I MPKI change", -74.0, -100.0, -60.0, "%"),
    Band("table3.broadwell_l2", "Table 3",
         "Broadwell L2-I MPKI change", -15.0, -40.0, -3.0, "%"),
    Band("table3.skylake_llc", "Table 3",
         "Skylake LLC-I MPKI change", -86.0, -100.0, -70.0, "%"),
    Band("table3.broadwell_llc", "Table 3",
         "Broadwell LLC-I MPKI change", -91.0, -100.0, -70.0, "%"),
]}


@dataclass
class BandReport:
    """Outcome of verifying measured values against the declared bands."""

    checked: List[str]
    passed: List[str]
    failed: List[str]
    lines: List[str]

    @property
    def all_passed(self) -> bool:
        return not self.failed

    def render(self) -> str:
        return "\n".join(self.lines)


def verify(measured: Dict[str, float],
           keys: Optional[Iterable[str]] = None) -> BandReport:
    """Check measured values (keyed like :data:`BANDS`) against the bands.

    Unknown keys raise; missing keys are simply not checked, so callers can
    verify one figure at a time.
    """
    report = BandReport(checked=[], passed=[], failed=[], lines=[])
    selected = list(keys) if keys is not None else list(measured)
    for key in selected:
        if key not in BANDS:
            raise KeyError(f"unknown band {key!r}")
        if key not in measured:
            continue
        band = BANDS[key]
        value = measured[key]
        report.checked.append(key)
        (report.passed if band.check(value) else report.failed).append(key)
        report.lines.append(band.describe(value))
    return report

"""Analysis helpers: metrics (CPI, MPKI, Jaccard, speedups) and plain-text
report rendering (aligned tables, Fig. 2's stacked CPI bars) for the
experiment harness."""

from repro.analysis.metrics import (
    geomean,
    geomean_speedup,
    jaccard_index,
    mpki,
    pairwise_jaccard,
    percent_change,
    speedup,
    summarize_distribution,
)
from repro.analysis.report import format_stacked_bars, format_table

__all__ = [
    "format_stacked_bars",
    "format_table",
    "geomean",
    "geomean_speedup",
    "jaccard_index",
    "mpki",
    "pairwise_jaccard",
    "percent_change",
    "speedup",
    "summarize_distribution",
]

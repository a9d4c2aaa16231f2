"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.

    That percentile sits below the median when there are fewer than
    ``2 * TAIL_BEYOND + 1`` samples; the maximum (percentile 100) is
    reported then instead, so the tail never reads lower than the median.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered: List[float] = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return float(ordered[-1]), 100.0
    rank = n - TAIL_BEYOND - 1
    return float(ordered[rank]), 100.0 * (rank + 1) / n


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")

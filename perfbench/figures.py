"""Summary arithmetic shared by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for a tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int, ladder=PERCENTILE_LADDER) -> float | None:
    """Highest percentile of ``ladder`` with at least ten of ``n`` samples beyond it."""
    best = None
    for p in ladder:
        if n * (100.0 - p) >= 100.0 * MIN_BEYOND - 1e-9:  # 100 - 99.9 is not exact
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf

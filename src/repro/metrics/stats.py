"""Small statistics helpers used by experiments and reports.

Implemented here (rather than pulling in pandas) because the experiment
harnesses need exactly these: means, percentiles, CDFs and geometric
means over short series.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return sorted_percentile(sorted(values), q)


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of an already-sorted, non-empty sequence."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # The blend can round outside its endpoints (two subnormal halves
    # underflow to 0.0), so pin it between them.
    return min(max(value, ordered[low]), ordered[high])


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative_fraction) pairs.

    This is the series Figure 10 plots for request execution latency.
    """
    if not values:
        raise ValueError("cdf of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold."""
    if not values:
        raise ValueError("cdf of empty sequence")
    return sum(1 for v in values if v <= threshold) / len(values)


def ratio(a: float, b: float) -> float:
    """Safe ratio a/b; raises instead of dividing by zero."""
    if b == 0:
        raise ValueError("ratio denominator is zero")
    return a / b

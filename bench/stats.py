"""Summary statistics shared by the benchmark and its comparison tool."""

from __future__ import annotations

import math
import statistics

__all__ = ["geomean", "median", "percentile", "quartiles", "spread"]


def percentile(values, q):
    """The *q*-th percentile (0-100) by linear interpolation between
    the two closest ranks; raises ``ValueError`` on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100], got %r" % q)
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values):
    """The 50th percentile."""
    return percentile(values, 50)


def geomean(values):
    """Geometric mean of positive values; raises on an empty sample or
    a value that is not positive (a latency of 0 is a measuring bug)."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a
    constant sample)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(q2)

"""Order statistics used by the benchmark and its spread check."""
from __future__ import annotations

import math
import statistics


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, p in [0, 100].

    Rank p/100 * (n - 1) between the sorted neighbours, the same rule as
    numpy's default, so p=50 is the ordinary median.
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must lie in [0, 100], got {p}")
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles come from statistics.quantiles(values, n=4) (the exclusive
    method), which is how run-to-run spread is judged against a metric's
    bound. A zero median gives 0 when all values are equal, else infinity.
    """
    xs = [float(v) for v in values]
    if len(xs) < 2:
        raise ValueError("quartile spread needs at least two values")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    mid = statistics.median(xs)
    if mid == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(mid)

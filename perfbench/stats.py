"""Order statistics and the regression-bound rule the benchmark is judged by."""

import math
import statistics


def percentile(values, q):
    """Linear-interpolated percentile, `q` in [0, 1], of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile rank {q} outside [0, 1]")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, q=0.99, beyond=10):
    """The `q` percentile, lowered until at least `beyond` samples lie above
    it. When that would fall below the median (too few samples), the
    maximum instead.

    Returns `(rank, value)` so callers can state which percentile they got.
    """
    n = len(values)
    last = n - 1 - beyond  # highest sorted index with `beyond` samples above
    if math.floor(q * (n - 1)) <= last:
        rank = q
    else:
        rank = last / (n - 1) if n > 1 else 0.0
    if rank < 0.5:
        return 1.0, max(values)
    return rank, percentile(values, rank)


def spread(values):
    """Inter-quartile distance as a share of the median, with the quartiles
    `statistics.quantiles(values, n=4)` gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`
    (negative when it improved)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def regressed(parent_values, change_values, bound, better):
    """True when the change's median is worse than the parent's by more than
    `bound` (a share of the parent's median)."""
    return worse_by(
        statistics.median(parent_values), statistics.median(change_values), better
    ) > bound

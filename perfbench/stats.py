"""Summary statistics used by the benchmark report."""

import math
import statistics

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``. That percentile lies above the
    median only from ``2 * beyond + 1`` samples on; with fewer, the maximum
    is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= 2 * beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond  # 1-based rank with exactly `beyond` ranks above it
    return ordered[rank - 1], 100.0 * rank / n, n


def geometric_mean(values):
    """Geometric mean of positive values.

    Used for the quality figures: under ``t1`` (Cauchy) noise the per-op
    errors have no finite mean, so an arithmetic mean over a pass would swing
    with single draws while the mean of their logarithms settles.
    """
    values = list(values)
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

"""Order statistics used by the benchmark's reports."""
from __future__ import annotations

import statistics

#: a tail figure must leave at least this many ops above it
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """Highest percentile that still has ``TAIL_BEYOND`` ops beyond it.

    Returns ``(value, percentile, ops_beyond)``.  With ``n`` sorted values
    the tail is the value at position ``n - TAIL_BEYOND - 1``, and its
    percentile is the share of ops at or below that position.  With too
    few values the maximum is returned and ``ops_beyond`` says how many
    ops lie above it (zero).
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sample")
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    if len(xs) <= TAIL_BEYOND:
        k = len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def quartile_spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

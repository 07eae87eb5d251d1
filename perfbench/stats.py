"""Summary statistics used by the benchmark and its compare step."""

from __future__ import annotations

import statistics

# Tail percentiles in basis points (9750 is p97.5), lowest first.
TAIL_LADDER_BP = (5000, 7500, 9000, 9500, 9750, 9900, 9950, 9990, 9995, 9999)
MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a nonempty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when n is too small for any of them."""
    best = None
    for bp in TAIL_LADDER_BP:
        if n * (10000 - bp) >= MIN_BEYOND * 10000:
            best = bp / 100.0
    return best


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail of a sample. With too few samples for
    any ladder percentile the maximum is reported as percentile 100."""
    pct = tail_percentile(len(values))
    if pct is None:
        return max(values), 100.0
    return percentile(values, pct), pct


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


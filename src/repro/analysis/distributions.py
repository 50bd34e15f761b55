"""Empirical distribution helpers (CDF, CCDF, percentiles).

Used by the benchmark harness to regenerate the paper's distribution
figures (Fig 6, Fig 9b/9c) and by the metrics module for percentile
errors.  Percentiles use linear interpolation (numpy's default), which
is what matters for comparing two distributions at the same p.  Plain
Python throughout: ``import repro`` reaches this module, and numpy is
optional.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100) of a non-empty sample.

    Delegates to :func:`repro.core.hist.exact_quantile` — the one
    exact-percentile implementation in the tree (linear interpolation,
    numpy-compatible), which the sketch accuracy guarantee is also
    checked against.
    """
    from ..core.hist import exact_quantile

    if len(values) == 0:
        raise ValueError("percentile of empty sample")
    return exact_quantile(values, p)


def cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical CDF as (sorted values, cumulative fractions]."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    return xs, [i / n for i in range(1, n + 1)]


def ccdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Complementary CDF, P[X > x], as (sorted values, tail fractions)."""
    xs, ys = cdf(values)
    return xs, [1.0 - y for y in ys]


def _fraction(values: Sequence[float], predicate) -> float:
    if len(values) == 0:
        raise ValueError("fraction of empty sample")
    return sum(1 for v in values if predicate(v)) / len(values)


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """P[X < threshold] of the empirical sample."""
    return _fraction(values, lambda v: v < threshold)


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """P[X > threshold] of the empirical sample."""
    return _fraction(values, lambda v: v > threshold)


def fraction_between(
    values: Sequence[float], low: float, high: float
) -> float:
    """P[low <= X <= high] of the empirical sample."""
    return _fraction(values, lambda v: low <= v <= high)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Standard summary row used across the benches."""
    data = sorted(float(v) for v in values)
    if not data:
        return {"count": 0}
    return {
        "count": len(data),
        "min": data[0],
        "p25": percentile(data, 25),
        "p50": percentile(data, 50),
        "p90": percentile(data, 90),
        "p95": percentile(data, 95),
        "p99": percentile(data, 99),
        "max": data[-1],
        "mean": math.fsum(data) / len(data),
    }


def quantile_series(
    values: Sequence[float], points: Iterable[float]
) -> List[Tuple[float, float]]:
    """(p, percentile) pairs for plotting a distribution."""
    return [(p, percentile(values, p)) for p in points]

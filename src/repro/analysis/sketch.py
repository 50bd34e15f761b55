"""Streaming quantile sketches for RTT distributions.

The analytics module (§3.3) is the customization point for operators;
beyond minima, operators typically want percentiles (the paper reports
p50/p95/p99 throughout §6).  Holding every sample is exactly what a
data plane cannot do, so this module provides a DDSketch-style
log-bucketed quantile estimator: constant-size state, one multiply/
compare per insert (feasible as a register array plus a lookup table on
a switch), and a guaranteed *relative* accuracy.

Guarantee: for relative accuracy ``alpha``, a returned quantile ``q̂``
satisfies ``|q̂ - q| <= alpha * q`` for the true sample quantile ``q``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional


class QuantileSketch:
    """A DDSketch-style relative-error quantile sketch."""

    def __init__(self, *, alpha: float = 0.01,
                 max_buckets: Optional[int] = 4096) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha out of range: {alpha}")
        self.alpha = alpha
        self._gamma = (1 + alpha) / (1 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._max_buckets = max_buckets
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- insertion -----------------------------------------------------------

    def _bucket_of(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def add(self, value: float, weight: int = 1) -> None:
        """Insert a non-negative value."""
        if value < 0:
            raise ValueError("sketch accepts non-negative values only")
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.count += weight
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if value == 0:
            self._zero_count += weight
            return
        index = self._bucket_of(value)
        self._buckets[index] = self._buckets.get(index, 0) + weight
        self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest buckets into the lowest of the ``max_buckets``
        highest (bounded-memory fallback).

        Collapsing low buckets preserves accuracy at the high quantiles
        operators alarm on (p95/p99) at the cost of the extreme low end.
        The result depends only on the buckets' contents — the highest
        ``max_buckets`` indices survive and the lowest of them holds
        every weight at or below it — so collapsing after every insert,
        after every merge, or once at the end builds the same sketch.
        """
        bound = self._max_buckets
        if bound is None or len(self._buckets) <= bound:
            return
        indices = sorted(self._buckets)
        cut = len(indices) - bound
        folded = sum(self._buckets.pop(index) for index in indices[:cut])
        self._buckets[indices[cut]] += folded

    # -- queries ----------------------------------------------------------------

    def quantile(self, p: float) -> float:
        """The p-th (0..100) quantile estimate."""
        if not 0 <= p <= 100:
            raise ValueError(f"quantile out of range: {p}")
        if self.count == 0:
            raise ValueError("quantile of an empty sketch")
        rank = p / 100 * (self.count - 1)
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                upper = self._gamma ** index
                estimate = 2 * upper / (1 + self._gamma)
                return min(max(estimate, self._min or 0.0),
                           self._max or estimate)
        return self._max if self._max is not None else 0.0

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def zero_count(self) -> int:
        return self._zero_count

    @property
    def max_buckets(self) -> Optional[int]:
        return self._max_buckets

    def bucket_count(self) -> int:
        return len(self._buckets) + (1 if self._zero_count else 0)

    @classmethod
    def from_counts(cls, buckets: Dict[int, int], zero_count: int,
                    min_value: Optional[float], max_value: Optional[float],
                    *, alpha: float = 0.01,
                    max_buckets: Optional[int] = 4096) -> "QuantileSketch":
        """The sketch that adding these values one by one builds.

        ``buckets`` maps an index to its weight (copied, not kept) and
        ``zero_count`` counts the zeros; ``max_buckets`` is applied
        once, which equals applying it after every add.
        """
        sketch = cls(alpha=alpha, max_buckets=max_buckets)
        sketch._buckets = dict(buckets)
        sketch._zero_count = zero_count
        sketch.count = zero_count + sum(buckets.values())
        sketch._min = min_value
        sketch._max = max_value
        sketch._collapse()
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            abs(other.alpha - self.alpha) <= 1e-12
            and self._max_buckets == other._max_buckets
            and self._buckets == other._buckets
            and self._zero_count == other._zero_count
            and self.count == other.count
            and self._min == other._min
            and self._max == other._max
        )

    __hash__ = None  # type: ignore[assignment]

    # -- composition ----------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch (same alpha) into this one."""
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError("cannot merge sketches with different alpha")
        for index, weight in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + weight
        self._zero_count += other._zero_count
        self.count += other.count
        for bound in (other._min, other._max):
            if bound is None:
                continue
            self._min = bound if self._min is None else min(self._min, bound)
            self._max = bound if self._max is None else max(self._max, bound)
        self._collapse()


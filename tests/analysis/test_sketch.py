"""Tests for the quantile sketch, including the relative-error bound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import QuantileSketch


@pytest.fixture
def np():
    """numpy, for the tests that draw from it or check against it."""
    return pytest.importorskip("numpy")


class TestQuantileSketch:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.5)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(-1)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(50)

    def test_single_value(self):
        sketch = QuantileSketch(alpha=0.01)
        sketch.add(42.0)
        assert sketch.quantile(0) == pytest.approx(42.0, rel=0.03)
        assert sketch.quantile(100) == pytest.approx(42.0, rel=0.03)
        assert sketch.min == sketch.max == 42.0

    def test_zeros_handled(self):
        sketch = QuantileSketch()
        for _ in range(10):
            sketch.add(0.0)
        sketch.add(100.0)
        assert sketch.quantile(50) == 0.0
        assert sketch.count == 11

    def test_relative_error_uniform(self, np):
        rng = np.random.default_rng(1)
        values = rng.uniform(1.0, 1000.0, size=20_000)
        sketch = QuantileSketch(alpha=0.01)
        for v in values:
            sketch.add(float(v))
        for p in (5, 25, 50, 75, 95, 99):
            true = float(np.percentile(values, p))
            est = sketch.quantile(p)
            assert abs(est - true) <= 0.02 * true + 1e-9

    def test_relative_error_lognormal(self, np):
        rng = np.random.default_rng(2)
        values = np.exp(rng.normal(3.0, 1.5, size=20_000))
        sketch = QuantileSketch(alpha=0.02)
        for v in values:
            sketch.add(float(v))
        for p in (50, 95, 99):
            true = float(np.percentile(values, p))
            est = sketch.quantile(p)
            assert abs(est - true) <= 0.05 * true

    def test_bounded_memory(self, np):
        sketch = QuantileSketch(alpha=0.01, max_buckets=64)
        rng = np.random.default_rng(3)
        for v in rng.uniform(0.001, 1e9, size=50_000):
            sketch.add(float(v))
        assert sketch.bucket_count() <= 65
        # High quantiles stay accurate despite low-bucket collapsing.
        assert sketch.quantile(99) > sketch.quantile(50)

    def test_merge_equals_union(self, np):
        rng = np.random.default_rng(4)
        a_vals = rng.uniform(1, 100, size=5000)
        b_vals = rng.uniform(50, 500, size=5000)
        a = QuantileSketch(alpha=0.01)
        b = QuantileSketch(alpha=0.01)
        union = QuantileSketch(alpha=0.01)
        for v in a_vals:
            a.add(float(v))
            union.add(float(v))
        for v in b_vals:
            b.add(float(v))
            union.add(float(v))
        a.merge(b)
        assert a.count == union.count
        for p in (50, 95):
            assert a.quantile(p) == pytest.approx(union.quantile(p),
                                                  rel=0.03)

    def test_merge_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.05))

    def test_weighted_insert(self):
        sketch = QuantileSketch()
        sketch.add(10.0, weight=99)
        sketch.add(1000.0, weight=1)
        assert sketch.quantile(50) == pytest.approx(10.0, rel=0.03)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6),
                    min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_quantiles_within_min_max(self, values):
        sketch = QuantileSketch(alpha=0.02)
        for v in values:
            sketch.add(v)
        for p in (0, 50, 100):
            q = sketch.quantile(p)
            assert min(values) - 1e-9 <= q <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4),
                    min_size=2, max_size=300))
    @settings(max_examples=50)
    def test_quantiles_monotone_in_p(self, values):
        sketch = QuantileSketch(alpha=0.02)
        for v in values:
            sketch.add(v)
        qs = [sketch.quantile(p) for p in (10, 50, 90, 99)]
        assert qs == sorted(qs)


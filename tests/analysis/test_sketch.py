"""Tests for the quantile sketch, including the relative-error bound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import (
    QuantileSketch,
    QuantileSketchAnalytics,
    SketchWindow,
)
from repro.core.flow import FlowKey
from repro.core.samples import RttSample

MS = 1_000_000
FLOW = FlowKey(src_ip=1, dst_ip=2, src_port=3, dst_port=4)


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


def sample(rtt_ms, t_ms):
    return RttSample(flow=FLOW, rtt_ns=int(rtt_ms * MS),
                     timestamp_ns=int(t_ms * MS), eack=0)


class TestSketchAnalytics:
    def test_windows_emit_percentiles(self):
        analytics = QuantileSketchAnalytics(window_ns=1000 * MS)
        for i in range(100):
            analytics.add(sample(10 + (i % 10), i * 5))
        analytics.add(sample(10, 2000))  # crosses window boundary
        assert analytics.history
        window = analytics.history[0]
        assert isinstance(window, SketchWindow)
        assert window.count == 100
        assert 10 * MS <= window.p50_ns <= 20 * MS
        assert window.p99_ns >= window.p50_ns

    def test_flush_closes_open_window(self):
        analytics = QuantileSketchAnalytics(window_ns=1000 * MS)
        analytics.add(sample(10, 0))
        analytics.flush(500 * MS)
        assert len(analytics.history) == 1

    def test_on_window_callback(self):
        seen = []
        analytics = QuantileSketchAnalytics(window_ns=100 * MS,
                                            on_window=seen.append)
        analytics.add(sample(5, 0))
        analytics.add(sample(5, 250))
        assert seen

    def test_usable_as_dart_analytics(self):
        from repro.core import Dart, ideal_config
        from repro.net import tcp as tcpf
        from repro.net.packet import PacketRecord

        analytics = QuantileSketchAnalytics(window_ns=10 * MS)
        dart = Dart(ideal_config(), analytics=analytics)
        dart.process(PacketRecord(
            timestamp_ns=0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
            seq=100, ack=1, flags=tcpf.FLAG_ACK, payload_len=50,
        ))
        dart.process(PacketRecord(
            timestamp_ns=5 * MS, src_ip=2, dst_ip=1, src_port=4, dst_port=3,
            seq=1, ack=150, flags=tcpf.FLAG_ACK, payload_len=0,
        ))
        dart.finalize()
        assert analytics.history
        assert analytics.history[0].p50_ns == pytest.approx(5 * MS, rel=0.05)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            QuantileSketchAnalytics(window_ns=0)

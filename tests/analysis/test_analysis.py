"""Tests for distributions, metrics, and report rendering."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis import (
    ccdf,
    cdf,
    collection_error_percent,
    evaluate_dart,
    format_count,
    fraction_above,
    fraction_below,
    fraction_between,
    fraction_collected_percent,
    percentile,
    quantile_series,
    render_cdf,
    render_series,
    render_table,
    summarize,
    worst_case_error_percent,
)


class TestDistributions:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_cdf_monotone(self):
        xs, ys = cdf([3, 1, 2])
        assert xs == [1, 2, 3]
        assert ys == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_ccdf_complements(self):
        xs, ys = ccdf([1, 2, 3, 4])
        assert ys == pytest.approx([0.75, 0.5, 0.25, 0.0])

    def test_fractions(self):
        values = [1, 2, 3, 4]
        assert fraction_below(values, 3) == 0.5
        assert fraction_above(values, 3) == 0.25
        assert fraction_between(values, 2, 3) == 0.5

    def test_summarize_keys(self):
        summary = summarize(range(100))
        assert summary["count"] == 100
        assert summary["min"] == 0
        assert summary["max"] == 99
        assert summary["p50"] == pytest.approx(49.5)

    def test_summarize_empty(self):
        assert summarize([]) == {"count": 0}

    def test_quantile_series(self):
        series = quantile_series([1, 2, 3], [0, 100])
        assert series == [(0, 1.0), (100, 3.0)]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=200))
    def test_cdf_ends_at_one(self, values):
        _, ys = cdf(values)
        assert ys[-1] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=200))
    @example([5e-324, 5e-324])  # denormals: lo*(1-f) + hi*f underflows to 0
    def test_percentile_bounded(self, values):
        p50 = percentile(values, 50)
        assert min(values) <= p50 <= max(values)


class TestMetrics:
    def test_collection_error_sign_convention(self):
        base = [10.0] * 100
        low = [5.0] * 100    # Dart underestimates -> positive error
        high = [20.0] * 100  # Dart overestimates -> negative error
        assert collection_error_percent(base, low, 50) == pytest.approx(50.0)
        assert collection_error_percent(base, high, 50) == pytest.approx(-100.0)

    def test_identical_distributions_zero_error(self):
        values = list(range(1, 101))
        assert collection_error_percent(values, values, 95) == 0.0
        assert worst_case_error_percent(values, values) == 0.0

    def test_worst_case_keeps_sign(self):
        base = list(range(1, 101))
        shifted = [v * 1.5 for v in base]
        assert worst_case_error_percent(base, shifted) < 0

    def test_fraction_collected(self):
        assert fraction_collected_percent(200, 150) == 75.0
        with pytest.raises(ValueError):
            fraction_collected_percent(0, 10)

    def test_evaluate_dart_bundle(self):
        base = [float(v) for v in range(1, 1001)]
        dart = base[:900]
        perf = evaluate_dart(base, dart, recirculations=50,
                             packets_processed=1000)
        assert perf.fraction_collected == 90.0
        assert perf.recirculations_per_packet == 0.05
        assert perf.baseline_samples == 1000
        row = perf.as_row()
        assert set(row) == {
            "err_p50_%", "err_p95_%", "err_p99_%", "err_worst_%",
            "fraction_%", "recirc_per_pkt",
        }

    def test_evaluate_dart_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate_dart([1.0], [], recirculations=0, packets_processed=1)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bb", 22.25]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.50" in text and "22.25" in text

    def test_render_series_has_axis(self):
        text = render_series([(1, 10), (2, 20), (3, 15)], title="chart",
                             x_label="size", y_label="frac")
        assert "chart" in text
        assert "size" in text
        assert "*" in text

    def test_render_series_empty(self):
        assert render_series([]) == "(empty series)"

    def test_render_series_log_x(self):
        text = render_series([(1, 1), (10, 2), (100, 3)], log_x=True)
        assert "log" in text

    def test_render_cdf_rows(self):
        text = render_cdf({"a": [1, 2, 3], "b": [10, 20, 30]},
                          points=[5, 25], unit="ms")
        assert "a" in text and "b" in text
        assert "100.0" in text

    def test_format_count(self):
        assert format_count(7_530_000) == "7.53M"
        assert format_count(8_200) == "8.2K"
        assert format_count(42) == "42"

"""Exporter formats: Prometheus text exposition and JSON lines."""

import json

from repro.obs import (
    TELEMETRY_SCHEMA,
    MetricsRegistry,
    parse_prometheus,
    to_json,
    to_prometheus,
)


def populated_registry() -> MetricsRegistry:
    r = MetricsRegistry()
    c = r.counter("dart_test_packets_total", "Packets seen",
                  ("monitor", "shard"))
    c.set_cumulative(("dart", "0"), 100)
    c.set_cumulative(("dart", "1"), 50)
    g = r.gauge("dart_test_occupancy", "Occupied slots", ("monitor",))
    g.set(("dart",), 7)
    h = r.histogram("dart_test_seconds", "Chunk wall time", ("monitor",),
                    buckets=(0.1, 1.0))
    h.observe(0.05, ("dart",))
    h.observe(0.5, ("dart",))
    h.observe(2.0, ("dart",))
    return r


class TestPrometheusText:
    def test_help_type_and_samples(self):
        text = to_prometheus(populated_registry())
        assert "# HELP dart_test_packets_total Packets seen" in text
        assert "# TYPE dart_test_packets_total counter" in text
        assert 'dart_test_packets_total{monitor="dart",shard="0"} 100' in text
        assert "# TYPE dart_test_occupancy gauge" in text
        assert text.endswith("\n")

    def test_histogram_expansion_is_cumulative(self):
        text = to_prometheus(populated_registry())
        assert 'dart_test_seconds_bucket{monitor="dart",le="0.1"} 1' in text
        assert 'dart_test_seconds_bucket{monitor="dart",le="1"} 2' in text
        assert 'dart_test_seconds_bucket{monitor="dart",le="+Inf"} 3' in text
        assert 'dart_test_seconds_sum{monitor="dart"} 2.55' in text
        assert 'dart_test_seconds_count{monitor="dart"} 3' in text

    def test_metric_names_sorted(self):
        text = to_prometheus(populated_registry())
        positions = [text.index(name) for name in (
            "# TYPE dart_test_occupancy",
            "# TYPE dart_test_packets_total",
            "# TYPE dart_test_seconds",
        )]
        assert positions == sorted(positions)

    def test_label_value_escaping(self):
        r = MetricsRegistry()
        r.counter("t_total", label_names=("path",)).inc(
            ('with "quotes"\nand\\slash',)
        )
        text = to_prometheus(r)
        assert r'with \"quotes\"\nand\\slash' in text

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestPrometheusRoundTrip:
    def test_values_survive(self):
        original = populated_registry()
        back = parse_prometheus(to_prometheus(original))
        assert back.value("dart_test_packets_total", ("dart", "0")) == 100
        assert back.value("dart_test_packets_total", ("dart", "1")) == 50
        assert back.value("dart_test_occupancy", ("dart",)) == 7

    def test_histogram_decumulates(self):
        original = populated_registry()
        back = parse_prometheus(to_prometheus(original))
        metric = back.get("dart_test_seconds")
        assert metric.kind == "histogram"
        assert metric.buckets == (0.1, 1.0)
        assert metric.bucket_counts[("dart",)] == [1, 1, 1]
        assert metric.sums[("dart",)] == 2.55
        assert metric.counts[("dart",)] == 3

    def test_help_and_escaped_labels_survive(self):
        original = populated_registry()
        back = parse_prometheus(to_prometheus(original))
        assert back.get("dart_test_packets_total").help == "Packets seen"
        r = MetricsRegistry()
        nasty = 'with "quotes"\nand\\slash'
        r.counter("t_total", label_names=("path",)).inc((nasty,), 3)
        back = parse_prometheus(to_prometheus(r))
        assert back.value("t_total", (nasty,)) == 3


class TestJson:
    def test_schema_and_shape_stable(self):
        payload = json.loads(to_json(populated_registry(), sequence=4,
                                     timestamp_unix_ns=12345))
        assert payload["schema"] == TELEMETRY_SCHEMA
        assert payload["sequence"] == 4
        assert payload["timestamp_unix_ns"] == 12345
        by_name = {m["name"]: m for m in payload["metrics"]}
        counter = by_name["dart_test_packets_total"]
        assert counter["kind"] == "counter"
        assert counter["labels"] == ["monitor", "shard"]
        assert {"labels": ["dart", "0"], "value": 100} in counter["series"]

    def test_histogram_series_carry_bounds(self):
        payload = json.loads(to_json(populated_registry()))
        hist = [m for m in payload["metrics"]
                if m["name"] == "dart_test_seconds"][0]
        assert hist["buckets"] == [0.1, 1.0]
        series = hist["series"][0]
        assert series["bucket_counts"] == [1, 1, 1]
        assert series["sum"] == 2.55
        assert series["count"] == 3

    def test_one_line_per_emission(self):
        text = to_json(populated_registry())
        assert "\n" not in text
        assert json.loads(text)  # valid JSON

    def test_timestamp_optional(self):
        payload = json.loads(to_json(populated_registry()))
        assert "timestamp_unix_ns" not in payload

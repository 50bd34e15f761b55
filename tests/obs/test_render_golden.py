"""Rendered bytes are pinned: the registry renders what the frozen
snapshot form it replaced rendered, byte for byte.

Every expected string below was captured from that earlier snapshot
path on the same two inputs: one fixed registry (a counter, a gauge and
a histogram; labelled and unlabelled series; label values and help text
carrying ``"``, ``\\`` and a newline) and one empty registry.  The
Prometheus text, the JSON line and the fleet's ``dart-snapshot-wire/1``
payload must each come out identical, and a payload captured from the
old path must decode and re-encode to the same bytes.
"""

import json

import pytest

from repro.obs import MetricsRegistry, to_json, to_prometheus

TIMESTAMP_NS = 1_700_000_000_123_456_789
SEQUENCE = 3


def fixed_registry():
    registry = MetricsRegistry()
    events = registry.counter("dart_test_events_total",
                              "Events seen\nby the \\ test",
                              ("monitor", "shard"))
    events.inc(("dart", "0"), 3)
    events.inc(("dart", "1"), 4.5)
    events.inc(('we"ird\\one\nline', ""), 2)
    registry.counter("dart_test_plain_total").inc((), 7)
    depth = registry.gauge("dart_test_depth", "Queue depth", ("shard",))
    depth.set(("0",), -1)
    depth.set(("1",), 0.25)
    registry.gauge("dart_test_up", "").set((), 1)
    hist = registry.histogram("dart_test_seconds", "Latency", ("key",),
                              buckets=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.002, 0.05, 0.5, 0.01):
        hist.observe(value, ("10.0.0.0/24",))
    hist.observe(0.003, ('a"b\\c\nd',))
    registry.histogram("dart_test_bare", buckets=(1.0, 2.0)).observe(1.5)
    return registry


FIXED_PROM = (
    '# TYPE dart_test_bare histogram\n'
    'dart_test_bare_bucket{le="1"} 0\n'
    'dart_test_bare_bucket{le="2"} 1\n'
    'dart_test_bare_bucket{le="+Inf"} 1\n'
    'dart_test_bare_sum 1.5\n'
    'dart_test_bare_count 1\n'
    '# HELP dart_test_depth Queue depth\n'
    '# TYPE dart_test_depth gauge\n'
    'dart_test_depth{shard="0"} -1\n'
    'dart_test_depth{shard="1"} 0.25\n'
    '# HELP dart_test_events_total Events seen\\nby the \\\\ test\n'
    '# TYPE dart_test_events_total counter\n'
    'dart_test_events_total{monitor="dart",shard="0"} 3\n'
    'dart_test_events_total{monitor="dart",shard="1"} 4.5\n'
    'dart_test_events_total{monitor="we\\"ird\\\\one\\nline",shard=""} 2\n'
    '# TYPE dart_test_plain_total counter\n'
    'dart_test_plain_total 7\n'
    '# HELP dart_test_seconds Latency\n'
    '# TYPE dart_test_seconds histogram\n'
    'dart_test_seconds_bucket{key="10.0.0.0/24",le="0.001"} 1\n'
    'dart_test_seconds_bucket{key="10.0.0.0/24",le="0.01"} 3\n'
    'dart_test_seconds_bucket{key="10.0.0.0/24",le="0.1"} 4\n'
    'dart_test_seconds_bucket{key="10.0.0.0/24",le="+Inf"} 5\n'
    'dart_test_seconds_sum{key="10.0.0.0/24"} 0.5625\n'
    'dart_test_seconds_count{key="10.0.0.0/24"} 5\n'
    'dart_test_seconds_bucket{key="a\\"b\\\\c\\nd",le="0.001"} 0\n'
    'dart_test_seconds_bucket{key="a\\"b\\\\c\\nd",le="0.01"} 1\n'
    'dart_test_seconds_bucket{key="a\\"b\\\\c\\nd",le="0.1"} 1\n'
    'dart_test_seconds_bucket{key="a\\"b\\\\c\\nd",le="+Inf"} 1\n'
    'dart_test_seconds_sum{key="a\\"b\\\\c\\nd"} 0.003\n'
    'dart_test_seconds_count{key="a\\"b\\\\c\\nd"} 1\n'
    '# TYPE dart_test_up gauge\n'
    'dart_test_up 1\n'
)

FIXED_JSON = (
    '{"schema":"dart-telemetry/1","sequence":3,"metrics":[{"name":"dart_test_bare",'
    '"kind":"histogram","labels":[],"buckets":[1.0,2.0],"series":[{"labels":[],'
    '"bucket_counts":[0,1,0],"sum":1.5,"count":1}]},{"name":"dart_test_depth",'
    '"kind":"gauge","labels":["shard"],"series":[{"labels":["0"],"value":-1},'
    '{"labels":["1"],"value":0.25}]},{"name":"dart_test_events_total",'
    '"kind":"counter","labels":["monitor","shard"],"series":[{"labels":["dart",'
    '"0"],"value":3},{"labels":["dart","1"],"value":4.5},{"labels":["we\\"ird\\\\one\\nline",'
    '""],"value":2}]},{"name":"dart_test_plain_total","kind":"counter",'
    '"labels":[],"series":[{"labels":[],"value":7}]},{"name":"dart_test_seconds",'
    '"kind":"histogram","labels":["key"],"buckets":[0.001,0.01,0.1],"series":[{"labels":["10.0.0.0/24"],'
    '"bucket_counts":[1,2,1,1],"sum":0.5625,"count":5},{"labels":["a\\"b\\\\c\\nd"],'
    '"bucket_counts":[0,1,0,0],"sum":0.003,"count":1}]},{"name":"dart_test_up",'
    '"kind":"gauge","labels":[],"series":[{"labels":[],"value":1}]}],'
    '"timestamp_unix_ns":1700000000123456789}'
)

FIXED_WIRE = (
    '{"schema": "dart-snapshot-wire/1", "sequence": 3, "metrics": [{"name": "dart_test_bare",'
    ' "kind": "histogram", "help": "", "label_names": [], "buckets": [1.0,'
    ' 2.0], "series": [{"labels": [], "bucket_counts": [0, 1, 0], "sum": 1.5,'
    ' "count": 1}]}, {"name": "dart_test_depth", "kind": "gauge", "help": "Queue depth",'
    ' "label_names": ["shard"], "series": [{"labels": ["0"], "value": -1},'
    ' {"labels": ["1"], "value": 0.25}]}, {"name": "dart_test_events_total",'
    ' "kind": "counter", "help": "Events seen\\nby the \\\\ test", "label_names": ["monitor",'
    ' "shard"], "series": [{"labels": ["dart", "0"], "value": 3}, {"labels": ["dart",'
    ' "1"], "value": 4.5}, {"labels": ["we\\"ird\\\\one\\nline", ""], "value": 2}]},'
    ' {"name": "dart_test_plain_total", "kind": "counter", "help": "",'
    ' "label_names": [], "series": [{"labels": [], "value": 7}]}, {"name": "dart_test_seconds",'
    ' "kind": "histogram", "help": "Latency", "label_names": ["key"],'
    ' "buckets": [0.001, 0.01, 0.1], "series": [{"labels": ["10.0.0.0/24"],'
    ' "bucket_counts": [1, 2, 1, 1], "sum": 0.5625, "count": 5}, {"labels": ["a\\"b\\\\c\\nd"],'
    ' "bucket_counts": [0, 1, 0, 0], "sum": 0.003, "count": 1}]}, {"name": "dart_test_up",'
    ' "kind": "gauge", "help": "", "label_names": [], "series": [{"labels": [],'
    ' "value": 1}]}]}'
)

EMPTY_PROM = ""

EMPTY_JSON = (
    '{"schema":"dart-telemetry/1","sequence":3,"metrics":[],"timestamp_unix_ns":1700000000123456789}'
)

EMPTY_WIRE = '{"schema": "dart-snapshot-wire/1", "sequence": 3, "metrics": []}'


CASES = [
    pytest.param(fixed_registry, FIXED_PROM, FIXED_JSON, FIXED_WIRE,
                 id="fixed"),
    pytest.param(MetricsRegistry, EMPTY_PROM, EMPTY_JSON, EMPTY_WIRE,
                 id="empty"),
]


@pytest.mark.parametrize("build, prom, line, wire", CASES)
def test_prometheus_bytes(build, prom, line, wire):
    assert to_prometheus(build()) == prom


@pytest.mark.parametrize("build, prom, line, wire", CASES)
def test_json_bytes(build, prom, line, wire):
    assert to_json(build(), sequence=SEQUENCE,
                   timestamp_unix_ns=TIMESTAMP_NS) == line


@pytest.mark.parametrize("build, prom, line, wire", CASES)
def test_fleet_wire_bytes(build, prom, line, wire):
    assert json.dumps(build().to_wire(SEQUENCE)) == wire


@pytest.mark.parametrize("build, prom, line, wire", CASES)
def test_captured_wire_decodes_and_reencodes(build, prom, line, wire):
    payload = json.loads(wire)
    registry = MetricsRegistry.from_wire(payload)
    assert json.dumps(registry.to_wire(payload["sequence"])) == wire
    assert to_prometheus(registry) == prom

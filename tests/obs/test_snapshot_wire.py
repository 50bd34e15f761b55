"""Registry wire round-trip: to_wire/from_wire is lossless.

The fleet protocol ships telemetry registries across process and host
boundaries as JSON (never pickle); these property tests pin that the
wire form reconstructs an *equal* registry after a real JSON encode /
decode cycle — the same discipline the exporter suite applies to
``parse_prometheus``.
"""

import json

import pytest
from hypothesis import given

from repro.cluster import merge_telemetry
from repro.obs import SNAPSHOT_WIRE_SCHEMA, MetricsRegistry

from .test_snapshot_merge import build_registry, ops_strategy


def wire_cycle(registry, sequence=0):
    """Encode to JSON text and back — the actual transport path."""
    return MetricsRegistry.from_wire(
        json.loads(json.dumps(registry.to_wire(sequence)))
    )


class TestWireRoundTrip:
    @given(ops=ops_strategy)
    def test_round_trip_is_lossless(self, ops):
        registry = build_registry(ops)
        assert wire_cycle(registry, 3).to_wire(3) == registry.to_wire(3)

    @given(a=ops_strategy, b=ops_strategy)
    def test_merge_commutes_with_wire(self, a, b):
        # Merging reconstructed registries == merging the originals: the
        # collector may merge wire-decoded deltas freely.
        ra, rb = build_registry(a), build_registry(b)
        via_wire = merge_telemetry([wire_cycle(ra), wire_cycle(rb)])
        direct = merge_telemetry([ra, rb])
        assert via_wire.to_wire() == direct.to_wire()

    def test_schema_is_stamped(self):
        wire = build_registry([]).to_wire()
        assert wire["schema"] == SNAPSHOT_WIRE_SCHEMA

    def test_unknown_schema_refused(self):
        wire = build_registry([("counter", "x", 1)]).to_wire()
        wire["schema"] = "dart-snapshot-wire/99"
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry.from_wire(wire)

    def test_sequence_survives(self):
        # The emission index rides the payload; decoding drops it (it
        # is not registry state) and re-encoding with the payload's
        # index restores the same bytes.
        registry = build_registry([("gauge", "y", 4)])
        payload = json.loads(json.dumps(registry.to_wire(17)))
        assert payload["sequence"] == 17
        restored = MetricsRegistry.from_wire(payload)
        assert json.dumps(restored.to_wire(payload["sequence"])) == \
            json.dumps(registry.to_wire(17))

    def test_empty_snapshot(self):
        assert wire_cycle(MetricsRegistry()).to_wire() == \
            MetricsRegistry().to_wire()
        assert len(wire_cycle(MetricsRegistry())) == 0

    def test_histogram_buckets_survive(self):
        restored = wire_cycle(build_registry([("histogram", "z", 5)] * 3))
        metric = restored.get("t_cost")
        assert metric is not None
        assert metric.buckets == (1.0, 3.0, 6.0)
        assert metric.counts[("z",)] == 3

    def test_bin_count_must_match_bounds(self):
        wire = build_registry([("histogram", "z", 5)]).to_wire()
        metric = next(m for m in wire["metrics"] if m["name"] == "t_cost")
        metric["series"][0]["bucket_counts"].append(0)
        with pytest.raises(ValueError, match="bin"):
            MetricsRegistry.from_wire(wire)

"""Distribution snapshots over the fleet wire.

The codec must round-trip a histogram+sketch snapshot through JSON
exactly (the decoded stage merges bin-for-bin like the original), and
the collector must apply the replacement-under-epoch rule per agent
with addition across agents — a restarted agent can never
double-count its distribution.
"""

import io
import json

import pytest

from repro.core.analytics import DstPrefixKey
from repro.core.flow import FlowKey
from repro.core.hist import DistributionAnalytics, HistogramSpec
from repro.core.samples import RttSample
from repro.fleet import FleetCollector, encode_frame, read_frame
from repro.fleet.wire import (
    FrameCorrupt,
    distribution_from_wire,
    distribution_to_wire,
)

MS = 1_000_000


def _sample(i, rtt_ns):
    flow = FlowKey(src_ip=0x0A000001, dst_ip=0x10000005 + (i % 3) * 256,
                   src_port=10, dst_port=443)
    return RttSample(flow=flow, rtt_ns=rtt_ns, timestamp_ns=i, eack=0)


def _distribution(count=20, offset=0):
    dist = DistributionAnalytics(
        HistogramSpec.log_bins(8),
        key_fn=DstPrefixKey(24),
        quantiles=(50.0, 99.0),
    )
    for i in range(count):
        dist.add(_sample(i, (offset + (i * 13) % 40 + 1) * MS))
    return dist


def test_roundtrip_is_exact_and_json_safe():
    original = _distribution()
    wire = json.loads(json.dumps(distribution_to_wire(original)))
    decoded = distribution_from_wire(wire)
    assert decoded == original
    assert decoded.histogram() == original.histogram()
    assert decoded.sketch() == original.sketch()
    assert decoded.histograms() == original.histograms()
    assert decoded.sketches() == original.sketches()


def test_decoded_stage_is_mergeable():
    a, b = _distribution(15), _distribution(25, offset=7)
    serial = _distribution(15)
    serial.merge(_distribution(25, offset=7))
    decoded = distribution_from_wire(distribution_to_wire(a))
    decoded.merge(distribution_from_wire(distribution_to_wire(b)))
    assert decoded == serial


def test_encode_flushes_buffered_state():
    # An add after a read is in the next encoding: reads cache nothing.
    dist = _distribution(10)
    _ = dist.count
    dist.add(_sample(99, 30 * MS))
    wire = distribution_to_wire(dist)
    assert wire["hist"]["total"]["count"] == 11


def test_flow_keyed_distribution_crosses_too():
    dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                 quantiles=(50.0,))
    for i in range(10):
        dist.add(_sample(i, (i + 1) * MS))
    decoded = distribution_from_wire(
        json.loads(json.dumps(distribution_to_wire(dist)))
    )
    assert decoded == dist


def test_malformed_payload_refused():
    wire = distribution_to_wire(_distribution())
    del wire["hist"]
    with pytest.raises(FrameCorrupt):
        distribution_from_wire(wire)
    with pytest.raises(FrameCorrupt):
        distribution_from_wire({"key_fn": {"t": "martian"}})


def _forge(mutate):
    wire = json.loads(json.dumps(distribution_to_wire(_distribution())))
    mutate(wire)
    return wire


def _first_key(view):
    return view["per_key"][0][1]


class TestForgedFieldsRefused:
    """A peer's numbers are checked as the registers are rebuilt: each
    forgery below would otherwise decode and skew the merged view."""

    def test_count_is_not_the_sum_of_the_bins(self):
        def mutate(wire):
            _first_key(wire["hist"])["count"] = 999
        with pytest.raises(FrameCorrupt, match="sum of its bins"):
            distribution_from_wire(_forge(mutate))

    def test_count_is_not_zeros_plus_buckets(self):
        def mutate(wire):
            _first_key(wire["sketch"])["count"] += 1
        with pytest.raises(FrameCorrupt, match="zero count plus"):
            distribution_from_wire(_forge(mutate))

    def test_negative_count_or_weight(self):
        def negative_bin(wire):
            state = _first_key(wire["hist"])
            state["counts"][0] = -5
            state["counts"][-1] += 5
        def negative_weight(wire):
            state = _first_key(wire["sketch"])
            state["buckets"][0][1] = -1
        for mutate in (negative_bin, negative_weight):
            with pytest.raises(FrameCorrupt, match="negative|weighs"):
                distribution_from_wire(_forge(mutate))

    def test_min_above_max(self):
        def mutate(wire):
            for view in ("hist", "sketch"):
                state = _first_key(wire[view])
                low = "min_ns" if view == "hist" else "min"
                high = "max_ns" if view == "hist" else "max"
                state[low], state[high] = state[high] + 1, state[low]
        with pytest.raises(FrameCorrupt, match="min exceeds"):
            distribution_from_wire(_forge(mutate))

    def test_key_in_one_stage_only(self):
        def mutate(wire):
            del wire["sketch"]["per_key"][0]
        with pytest.raises(FrameCorrupt, match="keys differ"):
            distribution_from_wire(_forge(mutate))

    def test_totals_differ_from_the_keys(self):
        def mutate(wire):
            total = wire["hist"]["total"]
            total["counts"][0] += 1
            total["count"] += 1
        with pytest.raises(FrameCorrupt, match="totals"):
            distribution_from_wire(_forge(mutate))


def _frame(agent, epoch, seq, distribution):
    payload = {
        "monitor": "dart",
        "records": 0,
        "stats": None,
        "flows": [],
        "windows": [],
        "windows_closed": 0,
        "telemetry": None,
        "final": False,
        "distribution": distribution_to_wire(distribution),
    }
    return read_frame(io.BytesIO(encode_frame(
        "delta", agent=agent, epoch=epoch, seq=seq, payload=payload
    )))


class TestCollectorMergeRules:
    def test_replacement_within_agent_addition_across(self):
        collector = FleetCollector()
        stale = _distribution(5)
        fresh_a = _distribution(20)
        fresh_b = _distribution(30, offset=3)
        collector.handle_frame(_frame("a1", 1, 1, stale))
        collector.handle_frame(_frame("a1", 1, 2, fresh_a))  # replaces
        collector.handle_frame(_frame("a2", 1, 1, fresh_b))  # adds
        merged = collector.merged_distribution()["dart"]
        expected = fresh_a.distribution_snapshot()
        expected.merge(fresh_b)
        assert merged == expected
        # Folding copied what it adopted: a second read is the same.
        assert collector.merged_distribution()["dart"] == expected

    def test_agent_restart_cannot_double_count(self):
        collector = FleetCollector()
        before = _distribution(40)
        after_restart = _distribution(12)
        collector.handle_frame(_frame("a1", 1, 9, before))
        # Restart: epoch bumps, cumulative state restarts smaller.
        collector.handle_frame(_frame("a1", 2, 1, after_restart))
        merged = collector.merged_distribution()["dart"]
        assert merged == after_restart

    def test_stale_delta_dropped(self):
        collector = FleetCollector()
        newest = _distribution(25)
        collector.handle_frame(_frame("a1", 1, 5, newest))
        collector.handle_frame(_frame("a1", 1, 3, _distribution(99)))
        assert collector.merged_distribution()["dart"] == newest

"""Distribution stages over the fleet wire.

A delta carries the stage's own state (its per-key registers): it must
round-trip through JSON exactly (the decoded stage merges bin-for-bin
like the original), forged rows must be refused whole, and the
collector must apply the replacement-under-epoch rule per agent with
addition across agents — a restarted agent can never double-count its
distribution.
"""

import io
import json

import pytest

from repro.core.analytics import DstPrefixKey
from repro.core.flow import FlowKey
from repro.core.hist import DistributionAnalytics, HistogramSpec
from repro.core.samples import RttSample
from repro.fleet import FleetCollector, encode_frame, read_frame
from repro.fleet.wire import FrameCorrupt, decode_delta

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


def _decode(state):
    """The stage a delta carrying ``state`` decodes to."""
    return decode_delta({"distribution": state})["distribution"]


def test_roundtrip_is_exact_and_json_safe():
    original = _distribution()
    decoded = _decode(json.loads(json.dumps(original.state())))
    assert decoded == original
    assert decoded.histogram() == original.histogram()
    assert decoded.sketch() == original.sketch()
    assert decoded.histograms() == original.histograms()
    assert decoded.sketches() == original.sketches()
    assert decoded.state() == original.state()


def test_decoded_stage_is_mergeable():
    a, b = _distribution(15), _distribution(25, offset=7)
    serial = _distribution(15)
    serial.merge(_distribution(25, offset=7))
    decoded = _decode(a.state())
    decoded.merge(_decode(b.state()))
    assert decoded == serial


def test_encode_flushes_buffered_state():
    # An add after a read is in the next encoding: reads cache nothing.
    dist = _distribution(10)
    _ = dist.count
    dist.add(_sample(99, 30 * MS))
    assert sum(row[3] for row in dist.state()["keys"]) == 11


def test_flow_keyed_distribution_crosses_too():
    dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                 quantiles=(50.0,))
    for i in range(10):
        dist.add(_sample(i, (i + 1) * MS))
    assert _decode(json.loads(json.dumps(dist.state()))) == dist


def test_malformed_payload_refused():
    state = _distribution().state()
    del state["edges_ns"]
    with pytest.raises(FrameCorrupt):
        _decode(state)
    with pytest.raises(FrameCorrupt):
        _decode({**_distribution().state(), "key_fn": {"t": "martian"}})


def _forge(mutate):
    state = json.loads(json.dumps(_distribution().state()))
    mutate(state["keys"][0])
    return state


# Register row fields: [key, counts, sum_ns, count, min_ns, max_ns,
# zero_count, [[index, weight], ...]].
COUNTS, COUNT, MIN, MAX, ZEROS, BUCKETS = 1, 3, 4, 5, 6, 7


class TestForgedFieldsRefused:
    """A peer's numbers are checked as the registers are rebuilt: each
    forgery below would otherwise decode and skew the merged view."""

    def test_count_is_not_the_sum_of_the_bins(self):
        def mutate(row):
            row[COUNT] = 999
        with pytest.raises(FrameCorrupt, match="sum of its bins"):
            _decode(_forge(mutate))

    def test_count_is_not_zeros_plus_buckets(self):
        def mutate(row):
            row[ZEROS] += 1
        with pytest.raises(FrameCorrupt, match="zero count plus"):
            _decode(_forge(mutate))

    def test_negative_count_or_weight(self):
        def negative_bin(row):
            row[COUNTS][0] = -5
            row[COUNTS][-1] += 5
        def negative_weight(row):
            row[BUCKETS][0][1] = -1
        def zero_weight(row):
            row[BUCKETS].append([10**6, 0])
        for mutate in (negative_bin, negative_weight, zero_weight):
            with pytest.raises(FrameCorrupt, match="negative|weighs"):
                _decode(_forge(mutate))

    def test_min_above_max(self):
        def mutate(row):
            row[MIN], row[MAX] = row[MAX] + 1, row[MIN]
        with pytest.raises(FrameCorrupt, match="min exceeds"):
            _decode(_forge(mutate))

    def test_wrong_bin_count(self):
        def mutate(row):
            row[COUNTS].append(0)
        with pytest.raises(FrameCorrupt, match="wrong bin count"):
            _decode(_forge(mutate))

    def test_empty_register(self):
        def mutate(row):
            row[COUNTS:] = [[0] * len(row[COUNTS]), 0, 0, 1, 1, 0, []]
        with pytest.raises(FrameCorrupt, match="no samples"):
            _decode(_forge(mutate))

    def test_repeated_key_or_bucket(self):
        state = _distribution().state()
        state["keys"].append(state["keys"][0])
        with pytest.raises(FrameCorrupt, match="repeated"):
            _decode(state)
        def mutate(row):
            row[BUCKETS].append(row[BUCKETS][0])
            row[COUNT] += row[BUCKETS][0][1]
            row[COUNTS][0] += row[BUCKETS][0][1]
        with pytest.raises(FrameCorrupt, match="repeated"):
            _decode(_forge(mutate))

    def test_non_integer_field(self):
        for value in ("7", 7.0, True, None):
            def mutate(row):
                row[COUNTS][0] = value
            with pytest.raises(FrameCorrupt, match="non-negative int"):
                _decode(_forge(mutate))


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
        "distribution": distribution.state(),
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

"""Tests for the analytics module (paper §3.3)."""

import pytest

from repro.core.analytics import (
    CollectAllAnalytics,
    DstPrefixKey,
    MinFilterAnalytics,
    PrefixMinAnalytics,
)
from repro.core.flow import FlowKey
from repro.core.samples import RttSample

MS = 1_000_000

FLOW_A = FlowKey(src_ip=0x0A000001, dst_ip=0x10000105, src_port=1, dst_port=2)
FLOW_B = FlowKey(src_ip=0x0A000002, dst_ip=0x10000207, src_port=3, dst_port=4)
FLOW_A2 = FlowKey(src_ip=0x0A000003, dst_ip=0x10000999, src_port=5, dst_port=6)


def sample(flow, rtt_ms, t_ms):
    return RttSample(flow=flow, rtt_ns=int(rtt_ms * MS),
                     timestamp_ns=int(t_ms * MS), eack=0)


class TestCollectAll:
    def test_keeps_everything(self):
        analytics = CollectAllAnalytics()
        for i in range(5):
            analytics.add(sample(FLOW_A, i + 1, i))
        assert len(analytics.samples) == 5

    def test_always_worth_recirculating(self):
        analytics = CollectAllAnalytics()
        assert analytics.worth_recirculating(FLOW_A, 0, 10**12)


class TestMinFilterSampleWindows:
    def test_window_closes_after_n_samples(self):
        analytics = MinFilterAnalytics(window_samples=3)
        for rtt in (30, 10, 20):
            analytics.add(sample(FLOW_A, rtt, rtt))
        assert len(analytics.history) == 1
        assert analytics.history[0].min_rtt_ns == 10 * MS
        assert analytics.history[0].sample_count == 3

    def test_windows_are_per_key(self):
        analytics = MinFilterAnalytics(window_samples=2)
        analytics.add(sample(FLOW_A, 5, 0))
        analytics.add(sample(FLOW_B, 7, 1))
        assert analytics.history == []
        analytics.add(sample(FLOW_A, 6, 2))
        assert len(analytics.history) == 1
        assert analytics.history[0].key == FLOW_A

    def test_window_indices_increment(self):
        analytics = MinFilterAnalytics(window_samples=1)
        analytics.add(sample(FLOW_A, 5, 0))
        analytics.add(sample(FLOW_A, 6, 1))
        assert [w.window_index for w in analytics.history] == [0, 1]

    def test_current_min_tracks_open_window(self):
        analytics = MinFilterAnalytics(window_samples=10)
        analytics.add(sample(FLOW_A, 9, 0))
        analytics.add(sample(FLOW_A, 4, 1))
        assert analytics.current_min(FLOW_A) == 4 * MS
        assert analytics.current_min(FLOW_B) is None

    def test_flush_closes_open_windows(self):
        analytics = MinFilterAnalytics(window_samples=10)
        analytics.add(sample(FLOW_A, 9, 0))
        analytics.flush(5 * MS)
        assert len(analytics.history) == 1

    def test_minima_for_filters_by_key(self):
        analytics = MinFilterAnalytics(window_samples=1)
        analytics.add(sample(FLOW_A, 5, 0))
        analytics.add(sample(FLOW_B, 7, 1))
        assert [w.key for w in analytics.minima_for(FLOW_B)] == [FLOW_B]

    def test_on_window_callback(self):
        seen = []
        analytics = MinFilterAnalytics(window_samples=1, on_window=seen.append)
        analytics.add(sample(FLOW_A, 5, 0))
        assert len(seen) == 1


class TestMinFilterTimeWindows:
    def test_time_window_closes_on_clock(self):
        analytics = MinFilterAnalytics(window_ns=10 * MS)
        analytics.add(sample(FLOW_A, 5, 0))
        analytics.add(sample(FLOW_A, 3, 4))
        analytics.add(sample(FLOW_A, 9, 12))  # crosses the 10 ms boundary
        assert len(analytics.history) == 1
        assert analytics.history[0].min_rtt_ns == 3 * MS

    def test_empty_windows_skipped(self):
        analytics = MinFilterAnalytics(window_ns=10 * MS)
        analytics.add(sample(FLOW_A, 5, 0))
        analytics.add(sample(FLOW_A, 9, 55))  # several silent windows
        assert len(analytics.history) == 1

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            MinFilterAnalytics()
        with pytest.raises(ValueError):
            MinFilterAnalytics(window_samples=8, window_ns=1)
        with pytest.raises(ValueError):
            MinFilterAnalytics(window_samples=0)


class TestPreemptiveDiscard:
    def test_beatable_minimum_recirculates(self):
        analytics = MinFilterAnalytics(window_samples=100)
        analytics.add(sample(FLOW_A, 50, 0))
        # A record inserted 10 ms ago could still beat the 50 ms minimum.
        assert analytics.worth_recirculating(FLOW_A, 0, 10 * MS)

    def test_unbeatable_minimum_purged(self):
        analytics = MinFilterAnalytics(window_samples=100)
        analytics.add(sample(FLOW_A, 5, 0))
        # 80 ms already elapsed: best case 80 ms >= 5 ms minimum.
        assert not analytics.worth_recirculating(FLOW_A, 0, 80 * MS)

    def test_unknown_key_always_recirculates(self):
        analytics = MinFilterAnalytics(window_samples=100)
        assert analytics.worth_recirculating(FLOW_A, 0, 10**12)


class TestPrefixAggregation:
    def test_dst_prefix_key(self):
        key_fn = DstPrefixKey(24)
        assert key_fn(sample(FLOW_A, 1, 0)) == 0x10000100
        assert key_fn(sample(FLOW_A2, 1, 0)) == 0x10000900

    def test_prefix_min_analytics_groups_flows(self):
        analytics = PrefixMinAnalytics(prefix_len=8, window_samples=2)
        analytics.add(sample(FLOW_A, 30, 0))
        analytics.add(sample(FLOW_B, 10, 1))  # same /8 -> same window
        assert len(analytics.history) == 1
        assert analytics.history[0].min_rtt_ns == 10 * MS
        assert analytics.history[0].key == 0x10000000

"""Merge semantics: stats, sample streams, window histories."""

from collections import Counter

import pytest

from repro.cluster import (
    ClusterPartialResultWarning,
    merge_results,
    merge_sample_lists,
    merge_stats,
    merge_window_histories,
)
from repro.cluster.worker import ShardResult
from repro.core import (
    DartStats,
    FlowKey,
    RttSample,
    WindowMinimum,
)
from repro.core.range_tracker import AckVerdict, SeqVerdict

MS = 1_000_000

FLOW_A = FlowKey(src_ip=1, dst_ip=2, src_port=10, dst_port=20)
FLOW_B = FlowKey(src_ip=3, dst_ip=4, src_port=30, dst_port=40)


def sample(flow, t_ms, rtt_ms=5):
    return RttSample(flow=flow, rtt_ns=rtt_ms * MS,
                     timestamp_ns=t_ms * MS, eack=100)


def window(key, index, closed_at_ms, min_rtt_ms=5):
    return WindowMinimum(key=key, window_index=index,
                         min_rtt_ns=min_rtt_ms * MS, sample_count=3,
                         closed_at_ns=closed_at_ms * MS)


class TestDartStatsMerge:
    def test_counters_sum(self):
        a = DartStats(packets_processed=10, samples=3, evictions=1)
        b = DartStats(packets_processed=5, samples=2, recirculations=4)
        merged = merge_stats([a, b])
        assert merged.packets_processed == 15
        assert merged.samples == 5
        assert merged.evictions == 1
        assert merged.recirculations == 4

    def test_verdict_histograms_sum(self):
        a = DartStats(seq_verdicts={SeqVerdict.NEW_FLOW: 1},
                      ack_verdicts={AckVerdict.VALID: 2})
        b = DartStats(seq_verdicts={SeqVerdict.NEW_FLOW: 3},
                      ack_verdicts={AckVerdict.OPTIMISTIC: 1})
        merged = merge_stats([a, b])
        assert merged.seq_verdicts[SeqVerdict.NEW_FLOW] == 4
        assert merged.ack_verdicts[AckVerdict.VALID] == 2
        assert merged.ack_verdicts[AckVerdict.OPTIMISTIC] == 1

    def test_merge_returns_self_and_leaves_other_untouched(self):
        a = DartStats(packets_processed=1)
        b = DartStats(packets_processed=2)
        assert a.merge(b) is a
        assert a.packets_processed == 3
        assert b.packets_processed == 2

    def test_merge_empty_iterable(self):
        assert merge_stats([]).packets_processed == 0


class TestSampleMerge:
    def test_interleaves_by_timestamp(self):
        shard0 = [sample(FLOW_A, 1), sample(FLOW_A, 5), sample(FLOW_A, 9)]
        shard1 = [sample(FLOW_B, 2), sample(FLOW_B, 4)]
        merged = merge_sample_lists([shard0, shard1])
        assert [s.timestamp_ns for s in merged] == [
            1 * MS, 2 * MS, 4 * MS, 5 * MS, 9 * MS
        ]
        assert Counter(merged) == Counter(shard0) + Counter(shard1)

    def test_equal_timestamps_keep_shard_order(self):
        shard0 = [sample(FLOW_A, 3)]
        shard1 = [sample(FLOW_B, 3)]
        merged = merge_sample_lists([shard0, shard1])
        assert merged == [shard0[0], shard1[0]]


class TestWindowHistoryMerge:
    def test_sorted_by_closed_at(self):
        h0 = [window(FLOW_A, 0, 10), window(FLOW_A, 1, 30)]
        h1 = [window(FLOW_B, 0, 20)]
        merged = merge_window_histories([h0, h1])
        assert [w.closed_at_ns for w in merged] == [10 * MS, 20 * MS, 30 * MS]

    def test_out_of_order_inputs_are_sorted_stably(self):
        # A shard can close windows with non-monotone closed_at_ns when
        # time windows for different keys lapse at different samples.
        h0 = [window(FLOW_A, 1, 30), window(FLOW_A, 0, 10)]
        h1 = [window(FLOW_B, 0, 10)]
        merged = merge_window_histories([h0, h1])
        assert [w.closed_at_ns for w in merged] == [10 * MS, 10 * MS, 30 * MS]
        # Equal close times keep input order: h0's entry before h1's.
        assert merged[0].key == FLOW_A
        assert merged[1].key == FLOW_B


class TestMergeResults:
    def test_aggregates_everything(self):
        r0 = ShardResult(
            shard_id=0, packets=10, stats=DartStats(packets_processed=10),
            samples=[sample(FLOW_A, 2)], window_history=[window(FLOW_A, 0, 5)],
            rt_collapses=1,
        )
        r1 = ShardResult(
            shard_id=1, packets=7, stats=DartStats(packets_processed=7),
            samples=[sample(FLOW_B, 1)], window_history=[window(FLOW_B, 0, 3)],
            rt_collapses=2,
        )
        merged = merge_results([r1, r0])
        assert merged.packets == 17
        assert merged.stats.packets_processed == 17
        assert merged.rt_collapses == 3
        assert [s.timestamp_ns for s in merged.samples] == [1 * MS, 2 * MS]
        assert [w.closed_at_ns for w in merged.window_history] == [
            3 * MS, 5 * MS
        ]
        assert not merged.partial

    def test_partial_flag_propagates(self):
        r0 = ShardResult(shard_id=0, packets=1, stats=DartStats())
        r1 = ShardResult(shard_id=1, packets=1, stats=DartStats(),
                         partial=True)
        with pytest.warns(ClusterPartialResultWarning, match=r"shard\(s\) \[1\]"):
            merged = merge_results([r0, r1])
        assert merged.partial

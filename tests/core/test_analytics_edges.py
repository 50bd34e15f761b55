"""Analytics edge cases the cluster merge relies on.

The sharded coordinator merges per-shard window histories and probes
``worth_recirculating`` from worker processes, so these behaviours must
be exact: flushing with an empty open window adds nothing, the per-key
index always agrees with the history (even under out-of-order close
times), and the recirculation probe is a pure function of its inputs.
"""

import pytest

from repro.core import Dart, DartConfig
from repro.core.analytics import (
    DstPrefixKey,
    MinFilterAnalytics,
    PrefixMinAnalytics,
    WindowMinimum,
    _probe_sample,
)
from repro.core.flow import FlowKey
from repro.core.samples import RttSample
from repro.traces import CampusTraceConfig, generate_campus_trace

MS = 1_000_000

FLOW_A = FlowKey(src_ip=0x0A000001, dst_ip=0x10000105, src_port=1, dst_port=2)
FLOW_B = FlowKey(src_ip=0x0A000002, dst_ip=0x10000207, src_port=3, dst_port=4)


def sample(flow, rtt_ms, t_ms):
    return RttSample(flow=flow, rtt_ns=int(rtt_ms * MS),
                     timestamp_ns=int(t_ms * MS), eack=0)


class TestFlushEmptyWindows:
    def test_flush_with_no_samples_at_all(self):
        analytics = MinFilterAnalytics(window_ns=10 * MS)
        analytics.flush(100 * MS)
        assert analytics.history == []

    def test_flush_skips_empty_open_time_window(self):
        """A time window that closed by clock advance leaves an empty
        open window behind; flushing it must not emit a ghost entry."""
        analytics = MinFilterAnalytics(window_ns=10 * MS)
        analytics.add(sample(FLOW_A, 5, 1))
        # The clock passes two full windows: the sample's window closes,
        # the current window is empty.
        analytics.add(sample(FLOW_A, 7, 25))
        analytics.flush(40 * MS)
        # Exactly two real windows — none for the empty stretch.
        assert len(analytics.history) == 2
        assert all(w.sample_count > 0 for w in analytics.history)

    def test_double_flush_adds_nothing(self):
        analytics = MinFilterAnalytics(window_samples=8)
        analytics.add(sample(FLOW_A, 5, 1))
        analytics.flush(10 * MS)
        assert len(analytics.history) == 1
        analytics.flush(20 * MS)
        assert len(analytics.history) == 1


class TestPerKeyIndex:
    def test_index_matches_history_scan(self):
        analytics = MinFilterAnalytics(window_samples=2)
        for t in range(8):
            analytics.add(sample(FLOW_A, 5 + t, t))
            analytics.add(sample(FLOW_B, 9 + t, t))
        for key in (FLOW_A, FLOW_B):
            assert analytics.minima_for(key) == [
                w for w in analytics.history if w.key == key
            ]

    def test_unknown_key_is_empty(self):
        analytics = MinFilterAnalytics(window_samples=2)
        assert analytics.minima_for(FLOW_A) == []

    def test_minima_for_returns_a_copy(self):
        analytics = MinFilterAnalytics(window_samples=1)
        analytics.add(sample(FLOW_A, 5, 1))
        got = analytics.minima_for(FLOW_A)
        got.append("garbage")
        assert analytics.minima_for(FLOW_A) != got

    def test_out_of_order_close_times_keep_index_consistent(self):
        """Per-key time windows close on each key's own clock, so the
        global history's closed_at_ns need not be monotone — the index
        must not care."""
        analytics = MinFilterAnalytics(window_ns=10 * MS)
        analytics.add(sample(FLOW_A, 5, 0))
        analytics.add(sample(FLOW_B, 6, 8))
        # FLOW_B's window closes first on B's clock offset.
        analytics.add(sample(FLOW_B, 7, 19))
        analytics.add(sample(FLOW_A, 4, 25))
        analytics.flush(30 * MS)
        closed = [w.closed_at_ns for w in analytics.history]
        assert len(closed) == 4
        for key in (FLOW_A, FLOW_B):
            per_key = analytics.minima_for(key)
            assert per_key == [w for w in analytics.history if w.key == key]
            indices = [w.window_index for w in per_key]
            assert indices == sorted(indices)


class TestWindowMinimumOrdering:
    def test_sort_by_closed_at_is_stable_for_ties(self):
        a = WindowMinimum(key=FLOW_A, window_index=0, min_rtt_ns=1,
                          sample_count=1, closed_at_ns=10)
        b = WindowMinimum(key=FLOW_B, window_index=0, min_rtt_ns=2,
                          sample_count=1, closed_at_ns=10)
        c = WindowMinimum(key=FLOW_A, window_index=1, min_rtt_ns=3,
                          sample_count=1, closed_at_ns=5)
        ordered = sorted([a, b, c], key=lambda w: w.closed_at_ns)
        assert ordered == [c, a, b]


class TestWorthRecirculatingDeterminism:
    def test_probe_sample_is_pure(self):
        p1 = _probe_sample(FLOW_A, 100)
        p2 = _probe_sample(FLOW_A, 100)
        assert p1 == p2
        assert p1.flow is FLOW_A and p1.rtt_ns == 0

    def test_same_inputs_same_verdict(self):
        analytics = MinFilterAnalytics(window_samples=8)
        analytics.add(sample(FLOW_A, 5, 10))
        verdicts = {
            analytics.worth_recirculating(FLOW_A, 2 * MS, 12 * MS)
            for _ in range(10)
        }
        assert len(verdicts) == 1

    def test_prefix_key_probe_matches_real_samples(self):
        """The probe must land in the same aggregation bucket as real
        samples of the flow, for key functions that only read the flow."""
        analytics = PrefixMinAnalytics(prefix_len=24, window_samples=8)
        analytics.add(sample(FLOW_A, 5, 10))
        key_fn = DstPrefixKey(24)
        assert key_fn(_probe_sample(FLOW_A, 0)) == key_fn(
            sample(FLOW_A, 5, 10)
        )
        # A small best-case sample is still useful; a huge one is not.
        assert analytics.worth_recirculating(FLOW_A, 9 * MS, 12 * MS)
        assert not analytics.worth_recirculating(FLOW_A, 0, 12 * MS)


class AlwaysProbing(MinFilterAnalytics):
    """``worth_recirculating`` as first written: every key function,
    the default included, is asked through a throw-away sample."""

    def worth_recirculating(self, flow, timestamp_ns, now_ns):
        current = self.current_min(self._key_fn(_probe_sample(flow, now_ns)))
        return current is None or now_ns - timestamp_ns < current


class TestPurgeWithoutAProbe:
    """The default key of a sample is its flow, so the purge skips the
    probe for it — and must decide exactly as the probe would."""

    PRESSURE = DartConfig(rt_slots=1 << 6, pt_slots=1 << 4, pt_stages=2,
                          max_recirculations=4, analytics_purge=True)

    @pytest.mark.parametrize("key_fn", [None, DstPrefixKey(24)],
                             ids=["flow-key", "dst-prefix-24"])
    def test_same_purges_windows_and_samples(self, key_fn):
        records = generate_campus_trace(
            CampusTraceConfig(connections=150, seed=9)).records
        runs = []
        for analytics_type in (MinFilterAnalytics, AlwaysProbing):
            dart = Dart(self.PRESSURE, analytics=analytics_type(
                window_samples=8, key_fn=key_fn))
            samples = dart.process_batch(records)
            dart.finalize()
            runs.append((dart.stats, dart.analytics.history, samples))
        assert runs[0] == runs[1]
        assert runs[0][0].analytics_purges > 0
        assert runs[0][1]

"""Bounded-memory analytics for continuous runs, and checkpoint
pickling of everything a streaming snapshot must carry."""

import pickle

import pytest

from repro.core import DartConfig
from repro.core.analytics import (
    DstPrefixKey,
    MinFilterAnalytics,
    flow_key,
)
from repro.core.flow import FlowKey
from repro.core.pipeline import Dart, LegFilter
from repro.core.samples import RttSample
from repro.net.inet import InternalNetwork, ipv4_to_int
from repro.traces import CampusTraceConfig, generate_campus_trace


def sample(i, *, src=1, rtt_ns=1_000_000):
    flow = FlowKey(src_ip=src, dst_ip=2, src_port=1000, dst_port=443)
    return RttSample(flow=flow, rtt_ns=rtt_ns,
                     timestamp_ns=i * 1_000_000, eack=i)


class TestRetainWindows:
    def test_per_key_index_caps_at_n(self):
        analytics = MinFilterAnalytics(window_samples=2, retain_windows=3)
        for i in range(20):  # ten closed windows for the one key
            analytics.add(sample(i))
        assert analytics.windows_closed == 10
        assert analytics.windows_evicted == 7
        key = flow_key(sample(0))
        minima = analytics.minima_for(key)
        assert len(minima) == 3
        # ...and it keeps the most *recent* windows.
        assert [w.window_index for w in minima] == [7, 8, 9]
        # The flat history still has everything until a drain ships it.
        assert len(analytics.history) == 10

    def test_unbounded_by_default(self):
        analytics = MinFilterAnalytics(window_samples=2)
        for i in range(20):
            analytics.add(sample(i))
        assert analytics.windows_evicted == 0
        assert len(analytics.minima_for(flow_key(sample(0)))) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MinFilterAnalytics(window_samples=2, retain_windows=0)


class TestDrainWindows:
    def test_hands_over_history_and_empties_the_index(self):
        analytics = MinFilterAnalytics(window_samples=2)
        for i in range(8):
            analytics.add(sample(i))
        drained = analytics.drain_windows()
        assert [w.window_index for w in drained] == [0, 1, 2, 3]
        assert analytics.history == []
        assert analytics.minima_for(flow_key(sample(0))) == []
        # Cumulative counter keeps counting across drains.
        assert analytics.windows_closed == 4
        analytics.add(sample(8))
        analytics.add(sample(9))
        assert analytics.windows_closed == 5
        assert len(analytics.drain_windows()) == 1

    def test_open_windows_survive_a_drain(self):
        analytics = MinFilterAnalytics(window_samples=4)
        for i in range(6):  # one closed window + two samples in flight
            analytics.add(sample(i))
        analytics.drain_windows()
        assert analytics.current_min(flow_key(sample(0))) is not None
        analytics.add(sample(6))
        analytics.add(sample(7))
        assert analytics.windows_closed == 2


class TestExpireIdle:
    def test_quiet_keys_are_closed_and_dropped(self):
        analytics = MinFilterAnalytics(window_samples=100)
        analytics.add(sample(0, src=1))
        analytics.add(sample(1000, src=2))  # much later, different key
        now_ns = sample(1001).timestamp_ns
        expired = analytics.expire_idle(now_ns, idle_ns=500_000_000)
        assert expired == 1
        # The idle key's open window closed (its minimum is recorded)...
        assert analytics.windows_closed == 1
        assert analytics.history[0].key == flow_key(sample(0, src=1))
        # ...and its state is gone, while the live key is untouched.
        assert analytics.current_min(flow_key(sample(0, src=1))) is None
        assert analytics.current_min(flow_key(sample(0, src=2))) is not None

    def test_rejects_nonpositive_idle(self):
        analytics = MinFilterAnalytics(window_samples=8)
        with pytest.raises(ValueError):
            analytics.expire_idle(0, idle_ns=0)


class TestCheckpointPickling:
    """Everything a checkpoint snapshot carries must round-trip pickle."""

    def test_key_functions_pickle(self):
        assert pickle.loads(pickle.dumps(flow_key)) is flow_key
        key = pickle.loads(pickle.dumps(DstPrefixKey(20)))
        assert key == DstPrefixKey(20)

    def test_leg_filter_pickles(self):
        internal = InternalNetwork([(ipv4_to_int("10.0.0.0"), 8)])
        fil = LegFilter(internal, legs=("external", "internal"))
        assert pickle.loads(pickle.dumps(fil)) == fil

    def test_mid_run_dart_pickles_and_continues_identically(self):
        records = generate_campus_trace(
            CampusTraceConfig(connections=30, seed=3)
        ).records
        half = len(records) // 2
        analytics = MinFilterAnalytics(window_samples=8, retain_windows=4)
        original = Dart(DartConfig(), analytics=analytics)
        for record in records[:half]:
            original.process(record)

        clone = pickle.loads(pickle.dumps(original))

        for monitor in (original, clone):
            for record in records[half:]:
                monitor.process(record)
            monitor.finalize(records[-1].timestamp_ns)

        assert clone.stats == original.stats
        assert clone.analytics.history == original.analytics.history
        assert clone.analytics.windows_closed == \
            original.analytics.windows_closed

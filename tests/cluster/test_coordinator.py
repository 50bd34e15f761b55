"""ShardedDart: serial equivalence, the degenerate case, the façade."""

from collections import Counter

import pytest

from repro.cluster import ShardedDart
from repro.core import (
    Dart,
    MinFilterAnalytics,
    ideal_config,
    make_leg_filter,
)
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def trace():
    return generate_campus_trace(
        CampusTraceConfig(connections=120, seed=3)
    )


@pytest.fixture(scope="module")
def serial_run(trace):
    dart = Dart(ideal_config())
    dart.process_trace(trace.records)
    dart.finalize()
    return dart


EQUIVALENT_COUNTERS = (
    "packets_processed", "seq_packets", "ack_packets", "tracked_inserts",
    "samples", "handshake_samples", "ignored_syn", "ignored_rst",
    "filtered_out",
)


class TestSerialEquivalence:
    @pytest.mark.parametrize("parallel", ["serial", "process"])
    def test_sample_multiset_and_counters(self, trace, serial_run, parallel):
        cluster = ShardedDart(ideal_config(), shards=4, parallel=parallel,
                              batch_size=256)
        cluster.process_trace(trace.records)
        cluster.finalize()
        assert Counter(cluster.samples) == Counter(serial_run.samples)
        for name in EQUIVALENT_COUNTERS:
            assert getattr(cluster.stats, name) == getattr(
                serial_run.stats, name
            ), name
        assert cluster.stats.seq_verdicts == serial_run.stats.seq_verdicts
        assert cluster.stats.ack_verdicts == serial_run.stats.ack_verdicts

    def test_samples_time_ordered(self, trace):
        cluster = ShardedDart(ideal_config(), shards=3, parallel="serial")
        cluster.process_trace(trace.records)
        stamps = [s.timestamp_ns for s in cluster.samples]
        assert stamps == sorted(stamps)

    def test_leg_filter_reaches_workers(self, trace):
        leg = make_leg_filter(trace.internal.is_internal,
                              legs=("external",))
        serial = Dart(ideal_config(), leg_filter=leg)
        serial.process_trace(trace.records)
        serial.finalize()
        cluster = ShardedDart(
            ideal_config(), shards=4, parallel="process",
            leg_filter=make_leg_filter(trace.internal.is_internal,
                                       legs=("external",)),
        )
        cluster.process_trace(trace.records)
        assert Counter(cluster.samples) == Counter(serial.samples)

    def test_analytics_windows_merge(self, trace):
        serial = Dart(
            ideal_config(),
            analytics=MinFilterAnalytics(window_samples=4),
        )
        serial.process_trace(trace.records)
        serial.finalize()
        cluster = ShardedDart(
            ideal_config(), shards=4, parallel="process",
            analytics_factory=lambda: MinFilterAnalytics(window_samples=4),
        )
        cluster.process_trace(trace.records)
        cluster.finalize()
        # Per-flow windows are identical; the merged history is the same
        # multiset, ordered by close time.
        assert Counter(cluster.window_history) == Counter(
            serial.analytics.history
        )
        closed = [w.closed_at_ns for w in cluster.window_history]
        assert closed == sorted(closed)


class TestDegenerateSingleShard:
    def test_is_the_serial_pipeline(self, trace, serial_run):
        cluster = ShardedDart(ideal_config(), shards=1, parallel="process")
        assert isinstance(cluster.dart, Dart)
        assert cluster.parallel == "serial"
        cluster.process_trace(trace.records)
        cluster.finalize()
        assert cluster.samples == serial_run.samples
        assert cluster.stats.packets_processed == \
            serial_run.stats.packets_processed

    def test_process_returns_samples_synchronously(self, trace):
        cluster = ShardedDart(ideal_config(), shards=1)
        produced = []
        for record in trace.records[:2000]:
            produced.extend(cluster.process(record))
        assert produced == cluster.samples[: len(produced)]


class TestFacade:
    def test_reading_stats_finalizes(self, trace):
        cluster = ShardedDart(ideal_config(), shards=2, parallel="process")
        cluster.process_trace(trace.records)
        # No explicit finalize: the read surface joins the workers.
        assert cluster.stats.packets_processed == len(trace.records)
        assert len(cluster.shard_results) == 2

    def test_process_after_finalize_raises(self, trace):
        cluster = ShardedDart(ideal_config(), shards=2, parallel="serial")
        cluster.process_trace(trace.records[:100])
        cluster.finalize()
        with pytest.raises(RuntimeError):
            cluster.process(trace.records[100])

    def test_finalize_is_idempotent(self, trace):
        cluster = ShardedDart(ideal_config(), shards=2, parallel="serial")
        cluster.process_trace(trace.records[:500])
        cluster.finalize()
        first = cluster.stats.packets_processed
        cluster.finalize()
        assert cluster.stats.packets_processed == first

    def test_shard_stats_cover_all_shards(self, trace):
        cluster = ShardedDart(ideal_config(), shards=4, parallel="serial")
        cluster.process_trace(trace.records)
        per_shard = cluster.shard_stats
        assert len(per_shard) == 4
        assert sum(s.packets_processed for s in per_shard) == \
            len(trace.records)
        assert all(s.packets_processed > 0 for s in per_shard)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedDart(shards=0)
        with pytest.raises(ValueError):
            ShardedDart(shards=2, parallel="gpu")
        with pytest.raises(ValueError, match=r"\['process', 'serial'\]"):
            ShardedDart(shards=2, parallel="thread")

    def test_custom_dart_factory(self, trace):
        built = []

        def factory():
            dart = Dart(ideal_config())
            built.append(dart)
            return dart

        cluster = ShardedDart(shards=2, parallel="serial",
                              monitor_factory=factory)
        cluster.process_trace(trace.records[:200])
        cluster.finalize()
        assert len(built) == 2

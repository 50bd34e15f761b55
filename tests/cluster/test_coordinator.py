"""ShardedDart: serial equivalence on the one route, the façade."""

from collections import Counter
from functools import partial

import pytest

from repro.cluster import ShardedDart
from repro.core import (
    Dart,
    LegFilter,
    MinFilterAnalytics,
    TargetFlowTable,
    TargetRule,
    ideal_config,
)
from repro.core.analytics import DstPrefixKey
from repro.core.hist import DistributionFactory, HistogramSpec
from repro.net.packet import to_wire_bytes
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def trace():
    return generate_campus_trace(
        CampusTraceConfig(connections=120, seed=3)
    )


@pytest.fixture(scope="module")
def serial_run(trace):
    dart = Dart(ideal_config())
    dart.process_batch(trace.records)
    dart.finalize()
    return dart


EQUIVALENT_COUNTERS = (
    "packets_processed", "seq_packets", "ack_packets", "tracked_inserts",
    "samples", "handshake_samples", "ignored_syn", "ignored_rst",
    "filtered_out",
)


#: Analytics a shard can carry: none, windowed minima, and the
#: histogram + sketch stage over windowed minima.
ANALYTICS = {
    "plain": None,
    "windowed": partial(MinFilterAnalytics, window_samples=4),
    "distribution": DistributionFactory(
        spec=HistogramSpec.log_bins(16), key_fn=DstPrefixKey(24),
        inner_factory=partial(MinFilterAnalytics, window_samples=4),
    ),
}

#: An ARP frame: the shard scanner skips it in every mode.
ARP = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28


class TestSerialEquivalence:
    @pytest.mark.parametrize("parallel", ["serial", "process"])
    def test_sample_multiset_and_counters(self, trace, serial_run, parallel):
        for shards in (1, 4):
            cluster = ShardedDart(ideal_config(), shards=shards,
                                  parallel=parallel, batch_size=256)
            cluster.process_batch(trace.records)
            cluster.finalize()
            assert len(cluster.shard_results) == shards
            assert Counter(cluster.samples) == Counter(serial_run.samples)
            for name in EQUIVALENT_COUNTERS:
                assert getattr(cluster.stats, name) == getattr(
                    serial_run.stats, name
                ), (shards, name)
            assert cluster.stats.seq_verdicts == serial_run.stats.seq_verdicts
            assert cluster.stats.ack_verdicts == serial_run.stats.ack_verdicts

    @pytest.mark.parametrize("entry", ["process_batch", "process_wire"])
    @pytest.mark.parametrize("fastpath", [True, False])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("analytics", sorted(ANALYTICS))
    def test_both_modes_answer_like_one_dart(self, trace, analytics, shards,
                                             fastpath, entry):
        """Serial and process mode take one route: each equals a plain
        ``Dart`` in stats, samples, windows and distribution, and the two
        agree on what they skipped and where every packet went."""
        records = trace.records
        factory = ANALYTICS[analytics]
        reference = Dart(ideal_config(),
                         analytics=factory() if factory else None)
        reference.process_batch(records)
        reference.finalize()
        clusters = []
        for parallel in ("serial", "process"):
            cluster = ShardedDart(
                ideal_config(), shards=shards, parallel=parallel,
                analytics_factory=factory, batch_size=128, fastpath=fastpath,
            )
            if entry == "process_batch":
                cluster.process_batch(records)
            else:
                for i, record in enumerate(records):
                    if i % 100 == 0:
                        cluster.process_wire(ARP, record.timestamp_ns)
                    cluster.process_wire(to_wire_bytes(record),
                                         record.timestamp_ns)
            cluster.finalize()
            assert cluster.stats == reference.stats
            assert Counter(cluster.samples) == Counter(reference.samples)
            history = getattr(reference.analytics, "history", [])
            assert Counter(cluster.window_history) == Counter(history)
            expected = (reference.analytics.distribution_snapshot()
                        if analytics == "distribution" else None)
            assert cluster.distribution == expected
            clusters.append(cluster)
        serial, process = clusters
        assert serial.wire_skipped == process.wire_skipped == (
            0 if entry == "process_batch" else len(records[::100]))
        assert ([r.packets for r in serial.shard_results]
                == [r.packets for r in process.shard_results])

    def test_samples_time_ordered(self, trace):
        cluster = ShardedDart(ideal_config(), shards=3, parallel="serial")
        cluster.process_batch(trace.records)
        stamps = [s.timestamp_ns for s in cluster.samples]
        assert stamps == sorted(stamps)

    def test_leg_filter_reaches_workers(self, trace):
        leg = LegFilter(trace.internal, legs=("external",))
        serial = Dart(ideal_config(), leg_filter=leg)
        serial.process_batch(trace.records)
        serial.finalize()
        cluster = ShardedDart(
            ideal_config(), shards=4, parallel="process",
            leg_filter=LegFilter(trace.internal, legs=("external",)),
        )
        cluster.process_batch(trace.records)
        assert Counter(cluster.samples) == Counter(serial.samples)

    def test_filters_reach_process_workers(self, trace):
        # Both filters ride into each worker's kernel on the framed
        # route: port-80 and -8443 flows are dropped, inbound data is
        # left untracked.
        filters = dict(
            leg_filter=LegFilter(trace.internal, legs=("external",)),
            target_filter=TargetFlowTable(
                [TargetRule(dst_ports=(443, 443))]).matches,
        )
        serial = Dart(ideal_config(), **filters)
        serial.process_batch(trace.records)
        serial.finalize()
        cluster = ShardedDart(ideal_config(), shards=3, parallel="process",
                              **filters)
        cluster.process_batch(trace.records)
        cluster.finalize()
        assert serial.stats.filtered_out > 0 and serial.stats.samples > 0
        assert cluster.stats == serial.stats
        assert Counter(cluster.samples) == Counter(serial.samples)

    def test_analytics_windows_merge(self, trace):
        serial = Dart(
            ideal_config(),
            analytics=MinFilterAnalytics(window_samples=4),
        )
        serial.process_batch(trace.records)
        serial.finalize()
        cluster = ShardedDart(
            ideal_config(), shards=4, parallel="process",
            analytics_factory=lambda: MinFilterAnalytics(window_samples=4),
        )
        cluster.process_batch(trace.records)
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
        """One shard is one worker on the shared route, not a bypass, and
        answers exactly like the serial pipeline."""
        cluster = ShardedDart(ideal_config(), shards=1, parallel="process")
        assert not hasattr(cluster, "dart")
        assert cluster.parallel == "process"
        cluster.process_batch(trace.records)
        cluster.finalize()
        assert len(cluster.shard_results) == 1
        assert cluster.samples == serial_run.samples
        assert cluster.stats.packets_processed == \
            serial_run.stats.packets_processed


class TestFacade:
    def test_reading_stats_finalizes(self, trace):
        cluster = ShardedDart(ideal_config(), shards=2, parallel="process")
        cluster.process_batch(trace.records)
        # No explicit finalize: the read surface joins the workers.
        assert cluster.stats.packets_processed == len(trace.records)
        assert len(cluster.shard_results) == 2

    def test_process_after_finalize_raises(self, trace):
        cluster = ShardedDart(ideal_config(), shards=2, parallel="serial")
        cluster.process_batch(trace.records[:100])
        cluster.finalize()
        with pytest.raises(RuntimeError):
            cluster.process(trace.records[100])

    def test_finalize_is_idempotent(self, trace):
        cluster = ShardedDart(ideal_config(), shards=2, parallel="serial")
        cluster.process_batch(trace.records[:500])
        cluster.finalize()
        first = cluster.stats.packets_processed
        cluster.finalize()
        assert cluster.stats.packets_processed == first

    def test_shard_stats_cover_all_shards(self, trace):
        cluster = ShardedDart(ideal_config(), shards=4, parallel="serial")
        cluster.process_batch(trace.records)
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
        cluster.process_batch(trace.records[:200])
        cluster.finalize()
        assert len(built) == 2

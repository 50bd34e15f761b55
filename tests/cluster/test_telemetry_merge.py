"""Cluster telemetry: shard registries fold once, emissions overwrite.

Each shard's worker ships its own :class:`~repro.obs.MetricsRegistry`
home inside its ``ShardResult``; the cluster merge folds them by
addition under one rule (kind, label names and bucket bounds must
match) and the coordinator's collector copies the fold over the
emitter's registry, so a finished cluster reports the same totals at
every emission.
"""

import io

import pytest

from repro.cluster import ShardedDart, merge_results
from repro.cluster.worker import ShardResult
from repro.core import DartStats, ideal_config
from repro.core.analytics import CollectAllAnalytics, DstPrefixKey
from repro.core.hist import DistributionFactory, HistogramSpec
from repro.obs import (
    DISTRIBUTION_LABELS,
    MetricsRegistry,
    TelemetryEmitter,
    collect_monitor,
    parse_prometheus,
)
from repro.traces import CampusTraceConfig, generate_campus_trace

FACTORY = DistributionFactory(
    spec=HistogramSpec.log_bins(8),
    key_fn=DstPrefixKey(24),
    inner_factory=CollectAllAnalytics,
)

#: Bucket layouts that must never be summed into (10, 20, 30).
MISMATCHED = [(10.0, 20.0, 40.0), (10.0, 20.0)]
MISMATCH_IDS = ["other-bounds", "other-bin-count"]


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=40, seed=7)
    ).records


def finished_cluster(records, **kwargs):
    cluster = ShardedDart(ideal_config(), shards=2, parallel="serial",
                          **kwargs)
    cluster.process_batch(records)
    cluster.finalize()
    return cluster


def shard_result(shard_id, buckets):
    registry = MetricsRegistry()
    registry.histogram("dart_rtt_hist", buckets=buckets).observe(25.0)
    return ShardResult(shard_id=shard_id, packets=1, stats=DartStats(),
                       telemetry=registry)


def test_repeated_emissions_report_the_same_totals(records):
    cluster = finished_cluster(records)
    emitter = TelemetryEmitter("prom", stream=io.StringIO())
    emitter.add_collector(lambda registry: collect_monitor(
        registry, cluster, "dart"))
    per_shard = {str(r.shard_id): r.packets for r in cluster.shard_results}
    for _ in range(3):
        parsed = parse_prometheus(emitter.emit())
        seen = {
            shard: parsed.value("dart_monitor_packets_processed_total",
                                ("dart", shard))
            for shard in per_shard
        }
        assert seen == per_shard
        assert sum(seen.values()) == cluster.stats.packets_processed


def test_shard_telemetry_is_a_registry_and_merging_leaves_it(records):
    cluster = finished_cluster(records)
    shards = cluster.shard_results
    assert all(isinstance(r.telemetry, MetricsRegistry) for r in shards)
    before = [r.telemetry.to_wire() for r in shards]
    merge_results(shards)
    merge_results(shards)
    assert [r.telemetry.to_wire() for r in shards] == before


@pytest.mark.parametrize("other", MISMATCHED, ids=MISMATCH_IDS)
def test_cluster_merge_refuses_mismatched_histograms(other):
    with pytest.raises(ValueError, match="bucket bounds differ"):
        merge_results([shard_result(0, (10.0, 20.0, 30.0)),
                       shard_result(1, other)])


@pytest.mark.parametrize("mismatch", ["other-bounds", "other-bin-count"])
def test_coordinator_collection_refuses_mismatched_histograms(records,
                                                              mismatch):
    cluster = finished_cluster(records, analytics_factory=FACTORY)
    shipped = cluster._merged.telemetry.get("dart_rtt_hist")
    assert shipped is not None
    if mismatch == "other-bounds":
        buckets = shipped.buckets[:-1] + (shipped.buckets[-1] * 2,)
    else:
        buckets = shipped.buckets[:-1]
    registry = MetricsRegistry()
    registry.histogram("dart_rtt_hist", label_names=DISTRIBUTION_LABELS,
                       buckets=buckets)
    with pytest.raises(ValueError, match="buckets"):
        cluster.collect_telemetry(registry, "dart")

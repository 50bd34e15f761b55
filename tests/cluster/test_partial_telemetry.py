"""Partial results must not silently drop in-flight window state.

A crashed worker's open analytics windows cannot be flushed safely, so
they are *dropped* — but the drop has to be loud: counted on the
partial ``ShardResult``, warned about at merge time, and exported as
cluster telemetry.  These are the regression tests for that contract.
"""

import warnings

import pytest

from repro.cluster import (
    ClusterPartialResultWarning,
    InlineWorker,
    ShardFailure,
    ShardedDart,
    merge_results,
    shard_of,
)
from repro.core import Dart, MinFilterAnalytics, ideal_config
from repro.net.framing import encode_records
from repro.obs import MetricsRegistry
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=60, seed=5)
    ).records


class CrashingWindowedDart(Dart):
    """Windowed analytics + a crash before any window can close.

    A large ``window_samples`` keeps every window open for the whole
    (short) run, so the partial harvest is guaranteed to have in-flight
    state to lose.
    """

    def __init__(self, crash_after: int) -> None:
        super().__init__(
            ideal_config(),
            analytics=MinFilterAnalytics(window_samples=10_000),
        )
        self._crash_after = crash_after

    def _packet(self, *row):
        if self.stats.packets_processed >= self._crash_after:
            raise RuntimeError("injected crash")
        return super()._packet(*row)


def crash_one_shard(records, *, crash_after=800):
    """Run a 2-shard process cluster where one shard crashes mid-trace."""
    cluster = ShardedDart(
        shards=2, parallel="process", batch_size=64, join_timeout=10.0,
        monitor_factory=lambda: CrashingWindowedDart(crash_after=crash_after),
    )
    with pytest.raises(ShardFailure) as excinfo:
        cluster.process_trace(records)
        cluster.finalize()
    return cluster, excinfo.value


def inline_shard(records, shard_id, *, crash_after):
    """What an :class:`InlineWorker` harvests for one shard of the same
    trace: its share of the records, up to the crash if it has one."""
    worker = InlineWorker(
        shard_id, lambda: CrashingWindowedDart(crash_after=crash_after))
    mine = [r for r in records if shard_of(r, 2) == shard_id]
    try:
        worker.submit_bytes(encode_records(mine))
    except ShardFailure as failure:
        return failure.partial[shard_id]
    return worker.finish(end_ns=max(r.timestamp_ns for r in records))


class TestWindowsLostAccounting:
    def test_partial_result_counts_open_windows(self, records):
        _, failure = crash_one_shard(records)
        partial = failure.partial.get(failure.shard_id)
        assert partial is not None
        assert partial.partial
        # The crashed shard had processed packets through a windowed
        # analytics stage that never got to close: the loss is counted,
        # not silently zero.
        assert partial.windows_lost > 0

    def test_merge_warns_and_propagates_loss(self, records):
        _, failure = crash_one_shard(records)
        results = list(failure.partial.values())
        with pytest.warns(ClusterPartialResultWarning,
                          match=r"in-flight analytics window"):
            merged = merge_results(results)
        assert merged.partial
        assert merged.windows_lost == sum(r.windows_lost for r in results)

    def test_clean_run_loses_nothing(self, records):
        cluster = ShardedDart(shards=2, parallel="process", batch_size=64,
                              join_timeout=10.0)
        cluster.process_trace(records)
        cluster.finalize()
        for result in cluster.shard_results:
            assert not result.partial
            assert result.windows_lost == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClusterPartialResultWarning)
            merge_results(list(cluster.shard_results))


class TestTelemetryParityUnderPartialHarvest:
    def test_partial_harvest_ships_the_inline_telemetry_sums(self, records):
        """Regression for the ShardResult.telemetry merge contract: the
        snapshot sums must be a function of the *work*, not of the
        process boundary the batches crossed or the partial-harvest
        path."""
        # At 2 shards this trace splits 5813/4189, so a crash budget of
        # 5000 fells exactly one shard — the partial set is deterministic.
        _, failure = crash_one_shard(records, crash_after=5000)
        results = sorted(failure.partial.values(), key=lambda r: r.shard_id)
        inline = [inline_shard(records, r.shard_id, crash_after=5000)
                  for r in results]
        assert any(r.partial for r in results)
        for shipped, reference in zip(results, inline):
            assert shipped.partial == reference.partial
            assert shipped.stats == reference.stats
            assert shipped.telemetry is not None
            assert shipped.telemetry.to_wire() == reference.telemetry.to_wire()
        with pytest.warns(ClusterPartialResultWarning):
            merged = merge_results(results)
            inline_merged = merge_results(inline)
        assert merged.telemetry.to_wire() == inline_merged.telemetry.to_wire()
        assert merged.windows_lost == inline_merged.windows_lost > 0


class TestClusterTelemetryExposure:
    def test_partial_counters_exported(self, records):
        cluster, failure = crash_one_shard(records)
        # Salvage path: merge whatever shipped home, then sample the
        # coordinator's telemetry as the engine's emitter would.
        salvaged = list(failure.partial.values())
        with pytest.warns(ClusterPartialResultWarning):
            cluster._merged = merge_results(salvaged)
        cluster._results = salvaged
        registry = MetricsRegistry()
        cluster.collect_telemetry(registry, "dart")
        partial_shards = registry.get("dart_cluster_partial_shards_total")
        assert partial_shards.value(("dart",)) == sum(
            1 for r in salvaged if r.partial
        )
        assert partial_shards.value(("dart",)) >= 1
        windows_lost = registry.get("dart_cluster_windows_lost_total")
        assert windows_lost.value(("dart", "")) == (
            cluster._merged.windows_lost
        )
        assert cluster._merged.windows_lost > 0

    def test_clean_run_exports_zero_partials(self, records):
        cluster = ShardedDart(shards=2, parallel="process", batch_size=64,
                              join_timeout=10.0)
        cluster.process_trace(records)
        cluster.finalize()
        registry = MetricsRegistry()
        cluster.collect_telemetry(registry, "dart")
        assert registry.get(
            "dart_cluster_partial_shards_total"
        ).value(("dart",)) == 0
        assert registry.get(
            "dart_cluster_windows_lost_total"
        ).value(("dart", "")) == 0

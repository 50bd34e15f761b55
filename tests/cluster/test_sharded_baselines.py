"""Flow-sharded baselines: any registered monitor merges to its serial run.

The coordinator was born Dart-only; after the engine refactor it shards
any monitor a zero-argument factory can build.  Flow-consistent
sharding keeps every flow's state inside one shard, so per-flow
monitors (tcptrace, strawman, dapper) must merge back to the serial
sample multiset and additive stats exactly.
"""

from collections import Counter

import pytest

from repro.cluster import ShardedDart
from repro.engine import MonitorOptions, create, monitor_factory
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=120, seed=3)
    ).records


def serial_run(name, records):
    monitor = create(name, MonitorOptions())
    monitor.process_batch(records)
    monitor.finalize(records[-1].timestamp_ns)
    return monitor


def sharded_run(name, records, shards):
    cluster = ShardedDart(
        shards=shards,
        parallel="serial",
        monitor_factory=monitor_factory(name, MonitorOptions()),
        batch_size=256,
    )
    cluster.process_batch(records)
    cluster.finalize(records[-1].timestamp_ns)
    return cluster


class TestShardedTcptrace:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merges_to_serial_result(self, records, shards):
        serial = serial_run("tcptrace", records)
        cluster = sharded_run("tcptrace", records, shards)
        assert Counter(cluster.samples) == Counter(serial.samples)
        assert cluster.stats == serial.stats

    def test_merged_samples_time_ordered(self, records):
        cluster = sharded_run("tcptrace", records, 4)
        stamps = [s.timestamp_ns for s in cluster.samples]
        assert stamps == sorted(stamps)

    def test_single_shard_preserves_emission_order(self, records):
        serial = serial_run("tcptrace", records)
        cluster = sharded_run("tcptrace", records, 1)
        assert list(cluster.samples) == list(serial.samples)


class TestOtherBaselines:
    @pytest.mark.parametrize("name", ["strawman", "dapper"])
    def test_merges_to_serial_result(self, records, name):
        serial = serial_run(name, records)
        cluster = sharded_run(name, records, 2)
        assert Counter(cluster.samples) == Counter(serial.samples)
        assert cluster.stats == serial.stats

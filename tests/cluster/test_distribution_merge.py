"""Cluster merge of the distribution stage: sharded == serial.

Flow-consistent sharding plus element-wise addition must make a
merged distribution equal a serial monitor's bin for bin and sketch
bucket for sketch bucket — across serial and process worker
modes (process crosses a real pickle boundary).
"""

import pytest

from repro.cluster import ShardedDart
from repro.core import Dart, DartConfig
from repro.core.analytics import CollectAllAnalytics, DstPrefixKey
from repro.core.hist import DistributionFactory, HistogramSpec
from repro.traces import CampusTraceConfig, generate_campus_trace

CONFIG = DartConfig()
FACTORY = DistributionFactory(
    spec=HistogramSpec.log_bins(16),
    key_fn=DstPrefixKey(24),
    inner_factory=CollectAllAnalytics,
)


def _trace():
    return generate_campus_trace(
        CampusTraceConfig(connections=120, seed=13)
    )


def _serial_distribution(records):
    dart = Dart(CONFIG, analytics=FACTORY())
    dart.process_batch(records)
    return dart.analytics.distribution_snapshot()


@pytest.mark.parametrize("parallel", ["serial", "process"])
def test_merged_distribution_equals_serial(parallel):
    records = _trace().records
    serial = _serial_distribution(records)
    cluster = ShardedDart(CONFIG, shards=4, parallel=parallel,
                          analytics_factory=FACTORY)
    cluster.process_batch(records)
    cluster.finalize()
    merged = cluster.distribution
    assert merged is not None
    assert merged == serial
    assert merged.histogram() == serial.histogram()
    assert merged.sketch() == serial.sketch()
    for q in (50.0, 95.0, 99.0):
        assert merged.sketch().quantile(q) == serial.sketch().quantile(q)


def test_single_shard_exposes_live_distribution():
    """One shard is one worker: reading ``distribution`` finalizes it,
    as at any shard count, and it counts what a serial run counts."""
    records = _trace().records
    cluster = ShardedDart(CONFIG, shards=1, analytics_factory=FACTORY)
    cluster.process_batch(records)
    distribution = cluster.distribution
    assert distribution is not None
    assert distribution.count == _serial_distribution(records).count


def test_no_distribution_without_stage():
    records = _trace().records
    cluster = ShardedDart(CONFIG, shards=2, parallel="serial")
    cluster.process_batch(records)
    cluster.finalize()
    assert cluster.distribution is None

"""Cluster fastpath equivalence: framed workers == object workers.

With ``fastpath=True`` each process worker hands its framed byte
batches to ``Dart.process_framed`` (packed records straight to kernel
rows) instead of ``process_batch(decode_batch(...))``.  The decode
strategy lives entirely inside the worker, so the merged result —
sample multiset, emission order, additive stats — must be identical
across the flag.  Neither route needs numpy.
"""

from collections import Counter

import pytest

from repro.cluster import ShardedDart
from repro.core import DartConfig
from repro.engine import MonitorOptions, create, monitor_factory
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=120, seed=3)
    ).records


def run_cluster(records, *, fastpath, parallel="process",
                shards=2, config=None):
    cluster = ShardedDart(
        config or DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                             pt_stages=2),
        shards=shards,
        parallel=parallel,
        batch_size=256,
        fastpath=fastpath,
    )
    cluster.process_batch(records)
    cluster.finalize(records[-1].timestamp_ns)
    return cluster


def test_fastpath_matches_object_workers(records):
    reference = run_cluster(records, fastpath=False)
    candidate = run_cluster(records, fastpath=True)
    assert list(candidate.samples) == list(reference.samples)
    assert candidate.stats == reference.stats
    assert (list(candidate.stats.seq_verdicts)
            == list(reference.stats.seq_verdicts))
    assert (list(candidate.stats.ack_verdicts)
            == list(reference.stats.ack_verdicts))


def test_fastpath_matches_serial_dart(records):
    """The original contract — merged cluster == one serial Dart — must
    survive the framed worker route."""
    serial = create("dart", MonitorOptions())
    serial.process_batch(records)
    serial.finalize(records[-1].timestamp_ns)
    # Ideal (default) tables: constrained per-shard tables evict
    # differently from one serial instance, which is expected — the
    # serial contract only holds when no capacity pressure exists.
    cluster = run_cluster(records, fastpath=True, shards=4,
                          config=DartConfig())
    assert Counter(cluster.samples) == Counter(serial.samples)
    assert cluster.stats == serial.stats


def test_fastpath_flag_recorded_and_harmless_off_process_mode(records):
    """Serial mode honours the flag too (its inline workers take the
    same byte batches): recorded, and the answers do not change."""
    reference = run_cluster(records, fastpath=False, parallel="serial")
    candidate = run_cluster(records, fastpath=True, parallel="serial")
    assert candidate.fastpath is True
    assert list(candidate.samples) == list(reference.samples)
    assert candidate.stats == reference.stats


def test_fastpath_non_dart_monitor_falls_back(records):
    """A sharded monitor without ``process_framed`` must run unchanged
    under the flag (worker-side per-record fallback)."""
    def build(fastpath):
        cluster = ShardedDart(
            shards=2,
            parallel="process",
            monitor_factory=monitor_factory("tcptrace", MonitorOptions()),
            batch_size=256,
            fastpath=fastpath,
        )
        cluster.process_batch(records)
        cluster.finalize(records[-1].timestamp_ns)
        return cluster

    reference = build(False)
    candidate = build(True)
    assert Counter(candidate.samples) == Counter(reference.samples)
    assert candidate.stats == reference.stats

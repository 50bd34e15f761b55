"""Merging per-shard results into one cluster-wide view.

Flow-consistent sharding guarantees every per-flow quantity is computed
entirely inside one shard, so merging is pure aggregation:

* counters add (:meth:`repro.core.stats.AdditiveCounters.merge`),
* sample streams interleave by timestamp (each shard's stream is
  already time-ordered, so the merged stream is the multiset union of
  the shards' samples in global ACK-arrival order),
* analytics window histories interleave by ``closed_at_ns`` — the order
  a single collector would have seen the windows close in.

What merging can *not* restore is cross-shard coupling that serial Dart
never had per flow anyway — see DESIGN.md ("Scaling out") for when the
merged output is bit-identical to a serial run versus multiset-equal.
"""

from __future__ import annotations

import warnings
from typing import Any, Iterable, List, Optional, Sequence

from ..core.analytics import WindowMinimum
from ..core.pipeline import DartStats
from ..core.samples import RttSample
from .worker import ClusterPartialResultWarning, ShardResult


def merge_stats(stats: Iterable[Any]) -> Any:
    """Sum per-shard stats into a fresh object of the same stats type.

    Works for any monitor's counters dataclass: a zero-argument
    construction of the first item's type seeds the fold, and
    :meth:`~repro.core.stats.AdditiveCounters.merge` (field-wise
    addition, verdict histograms key by key) accumulates into it.  An
    empty input merges to an empty :class:`DartStats` — the historical
    behaviour, kept for callers that merge zero shards.
    """
    iterator = iter(stats)
    first = next(iterator, None)
    if first is None:
        return DartStats()
    merged = type(first)()
    merged.merge(first)
    for s in iterator:
        merged.merge(s)
    return merged


def merge_sample_lists(
    sample_lists: Iterable[Sequence[RttSample]],
) -> List[RttSample]:
    """Interleave per-shard sample streams by ACK arrival time.

    The sort is stable, so samples with equal timestamps keep their
    within-shard order; across shards equal-timestamp order follows
    shard id — a deterministic, documented tie-break.
    """
    merged: List[RttSample] = []
    for samples in sample_lists:
        merged.extend(samples)
    merged.sort(key=lambda s: s.timestamp_ns)
    return merged


def merge_window_histories(
    histories: Iterable[Sequence[WindowMinimum]],
) -> List[WindowMinimum]:
    """Interleave per-shard closed-window streams by close time.

    Stable under out-of-order ``closed_at_ns`` inputs: entries with the
    same close time keep their input order (first by history, then by
    position), so merging is deterministic even when shards close
    windows in the same nanosecond.
    """
    merged: List[WindowMinimum] = []
    for history in histories:
        merged.extend(history)
    merged.sort(key=lambda w: w.closed_at_ns)
    return merged


def merge_distributions(stages: Iterable[Any]) -> Optional[Any]:
    """Fold distribution stages by addition (``None`` when there are none).

    Seeds the fold with a snapshot of the first (distribution stages
    carry configuration — bin edges, alpha — so there is no
    zero-argument construction) and merges the rest in; merging copies
    what it adopts, so every input stage stays untouched.  The one fold
    for shards' and fleet agents' stages alike.
    """
    merged = None
    for stage in stages:
        if merged is None:
            merged = stage.distribution_snapshot()
        else:
            merged.merge(stage)
    return merged


def merge_telemetry(registries: Iterable[Any]) -> Optional[Any]:
    """Sum :class:`~repro.obs.MetricsRegistry` objects into a fresh one
    (``None`` when there are none) — the one fold for shards' and fleet
    agents' telemetry.  Inputs are never mutated; mismatched shapes
    raise :class:`ValueError`."""
    from ..obs.metrics import MetricsRegistry

    merged = None
    for registry in registries:
        if merged is None:
            merged = MetricsRegistry()
        merged.merge(registry)
    return merged


def merge_results(results: Iterable[ShardResult]) -> ShardResult:
    """Collapse per-shard results into one cluster-wide ShardResult.

    The merged object uses shard id -1 (it belongs to no single shard)
    and is marked partial if any contributing result was.  Merging a
    partial result is loud: the failed shard's in-flight analytics
    windows are gone, so a :class:`ClusterPartialResultWarning` names
    the failed shards and the window count lost — salvaged views must
    never read as complete ones.
    """
    ordered = sorted(results, key=lambda r: r.shard_id)
    failed = [r.shard_id for r in ordered if r.partial]
    if failed:
        lost = sum(r.windows_lost for r in ordered)
        warnings.warn(
            f"merging partial results: shard(s) {failed} failed "
            f"mid-trace; {lost} in-flight analytics window(s) lost "
            "(their samples are absent from the merged view)",
            ClusterPartialResultWarning,
            stacklevel=2,
        )
    return ShardResult(
        shard_id=-1,
        packets=sum(r.packets for r in ordered),
        stats=merge_stats(r.stats for r in ordered),
        samples=merge_sample_lists(r.samples for r in ordered),
        window_history=merge_window_histories(
            r.window_history for r in ordered
        ),
        rt_collapses=sum(r.rt_collapses for r in ordered),
        partial=any(r.partial for r in ordered),
        windows_lost=sum(r.windows_lost for r in ordered),
        telemetry=merge_telemetry(
            r.telemetry for r in ordered if r.telemetry is not None
        ),
        distribution=merge_distributions(
            r.distribution for r in ordered if r.distribution is not None
        ),
    )

"""Collectors: sample existing monitor state into a metrics registry.

The monitors already maintain cumulative counters (``DartStats``,
``TcpTraceStats``, ``RangeTrackerStats``, ...) on their hot paths; the
telemetry layer does not add per-packet work on top.  Instead, a
collector runs once per emission interval and copies those counters
into the registry (:meth:`~repro.obs.metrics.Counter.set_cumulative`),
plus point-in-time gauges (table occupancy).

Metric naming scheme (DESIGN §9): ``dart_<subsystem>_<what>[_total]``
with subsystems ``monitor`` (per-monitor core counters), ``engine``
(trace-pass plumbing), and ``cluster`` (shard coordination).  Every
per-monitor metric carries ``monitor`` and ``shard`` labels; serial
monitors use ``shard=""`` so the labelset shape is identical either
side of the cluster merge.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Tuple

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Labels every per-monitor metric carries.
MONITOR_LABELS: Tuple[str, ...] = ("monitor", "shard")
VERDICT_LABELS: Tuple[str, ...] = ("monitor", "shard", "verdict")
#: Distribution metrics add the aggregation key (flow or prefix);
#: ``key=""`` is the all-traffic aggregate.
DISTRIBUTION_LABELS: Tuple[str, ...] = ("monitor", "shard", "key")

#: Per-key labelsets emitted per distribution metric (the aggregate
#: rides on top).  Bounds scrape size when the stage keys per flow.
DISTRIBUTION_TOP_KEYS = 16


def _verdict_name(verdict: Any) -> str:
    if isinstance(verdict, Enum):
        return verdict.name.lower()
    return str(verdict)


def collect_stats(registry: MetricsRegistry, stats: Any,
                  monitor: str, shard: str = "",
                  prefix: str = "dart_monitor") -> None:
    """Copy a stats dataclass into cumulative counters.

    Integer fields become ``<prefix>_<field>_total{monitor=,shard=}``;
    dict-valued fields (the verdict histograms) fan out into one
    counter per verdict with a ``verdict`` label.
    """
    if not is_dataclass(stats):
        return
    labels = (monitor, shard)
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            registry.counter(
                f"{prefix}_{f.name}_total", label_names=MONITOR_LABELS
            ).set_cumulative(labels, value)
        elif isinstance(value, dict):
            counter = registry.counter(
                f"{prefix}_{f.name}_total", label_names=VERDICT_LABELS
            )
            for verdict, count in value.items():
                counter.set_cumulative(
                    (monitor, shard, _verdict_name(verdict)), count
                )


def _quantile_suffix(q: float) -> str:
    """``50.0`` -> ``"50"``, ``99.9`` -> ``"99_9"`` (metric-name safe)."""
    if q == int(q):
        return str(int(q))
    return str(q).replace(".", "_")


def collect_distribution(registry: MetricsRegistry, distribution: Any,
                         monitor: str, shard: str = "",
                         top_keys: int = DISTRIBUTION_TOP_KEYS) -> None:
    """Sample a distribution analytics stage into the registry.

    Emits ``dart_rtt_hist`` (rendered by the Prometheus exporter as
    cumulative ``dart_rtt_hist_bucket``/``_sum``/``_count`` series, in
    seconds) and sketch-derived ``dart_rtt_p<q>`` gauges.  Each metric
    carries the all-traffic aggregate under ``key=""`` plus the
    ``top_keys`` busiest per-key series — copied with one
    :meth:`~repro.obs.metrics.Histogram.set_state` per labelset, so
    telemetry stays zero-cost per packet.
    """
    total = distribution.histogram()
    if total.count == 0:
        return
    buckets_s = tuple(edge / 1e9 for edge in distribution.spec.edges_ns)
    hist = registry.histogram(
        "dart_rtt_hist",
        "RTT distribution (seconds) from the fixed-bin analytics stage",
        DISTRIBUTION_LABELS, buckets=buckets_s,
    )
    ranked = sorted(
        distribution.histograms().items(),
        key=lambda kv: (-kv[1].count, distribution.key_label(kv[0])),
    )[:top_keys]

    hist.set_state((monitor, shard, ""), total.counts, total.sum_ns / 1e9,
                   total.count)
    for key, per_key_hist in ranked:
        hist.set_state(
            (monitor, shard, distribution.key_label(key)),
            per_key_hist.counts,
            per_key_hist.sum_ns / 1e9,
            per_key_hist.count,
        )

    sketches = [("", distribution.sketch())]
    sketches += [(distribution.key_label(key), distribution.sketch(key))
                 for key, _ in ranked]
    for q in distribution.quantiles:
        gauge = registry.gauge(
            f"dart_rtt_p{_quantile_suffix(q)}",
            f"Sketch-estimated p{q:g} RTT (seconds)",
            DISTRIBUTION_LABELS,
        )
        for label, sketch in sketches:
            gauge.set((monitor, shard, label), sketch.quantile(q) / 1e9)


def collect_monitor(registry: MetricsRegistry, monitor: Any,
                    name: str, shard: str = "") -> None:
    """Sample one monitor's observable state into the registry.

    A monitor may define ``collect_telemetry(registry, name)`` to take
    over entirely (the cluster coordinator does — reading ``stats`` on
    a mid-flight :class:`~repro.cluster.ShardedDart` would finalize
    it).  Otherwise this generic path reads:

    * the ``stats`` counters dataclass (every monitor has one),
    * Range Tracker collapse, overwrite and expiry counters and RT/PT
      occupancy (Dart only; read through ``getattr`` guards like the
      cluster's ``harvest`` does, so baselines collect cleanly).
    """
    custom = getattr(monitor, "collect_telemetry", None)
    if callable(custom):
        custom(registry, name)
        return
    labels = (name, shard)
    collect_stats(registry, monitor.stats, name, shard)
    analytics = getattr(monitor, "analytics", None)
    snapshot = getattr(analytics, "distribution_snapshot", None)
    if callable(snapshot):
        collect_distribution(registry, snapshot(), name, shard)
    range_tracker = getattr(monitor, "range_tracker", None)
    if range_tracker is not None:
        collect_stats(registry, range_tracker.stats, name, shard,
                      prefix="dart_monitor_rt")
        registry.counter(
            "dart_monitor_rt_collapses_total",
            "Total Range Tracker collapses (congestion signal, paper §3.1)",
            MONITOR_LABELS,
        ).set_cumulative(labels, range_tracker.stats.total_collapses)
    occupancy = getattr(monitor, "occupancy", None)
    if callable(occupancy):
        occupied = occupancy()
        if isinstance(occupied, tuple):
            # Dart: (RT, PT) occupied-slot counts.
            rt_occupied, pt_occupied = occupied
            registry.gauge(
                "dart_monitor_rt_occupancy",
                "Occupied Range Tracker slots", MONITOR_LABELS,
            ).set(labels, rt_occupied)
            registry.gauge(
                "dart_monitor_pt_occupancy",
                "Occupied Packet Tracker slots", MONITOR_LABELS,
            ).set(labels, pt_occupied)
        else:
            # Baselines expose one flow-table occupancy count.
            registry.gauge(
                "dart_monitor_table_occupancy",
                "Occupied flow-table slots", MONITOR_LABELS,
            ).set(labels, occupied)


def collect_registry(registry: MetricsRegistry,
                     source: MetricsRegistry) -> None:
    """Copy every series of ``source`` into the registry, overwriting.

    The collector for telemetry that was harvested elsewhere (a
    finished cluster's merged worker registries): like every other
    collector it *sets* (``set_cumulative`` / ``set`` / ``set_state``),
    so emitting twice reports the same totals, never twice them.  A
    histogram already registered with other bucket bounds raises
    :class:`ValueError`.
    """
    for metric in source:
        if isinstance(metric, Histogram):
            histogram = registry.histogram(
                metric.name, metric.help, metric.label_names,
                buckets=metric.buckets,
            )
            for labels, counts in metric.bucket_counts.items():
                histogram.set_state(labels, counts, metric.sum(labels),
                                    metric.count(labels))
        elif isinstance(metric, Counter):
            counter = registry.counter(metric.name, metric.help,
                                       metric.label_names)
            for labels, value in metric.values.items():
                counter.set_cumulative(labels, value)
        elif isinstance(metric, Gauge):
            gauge = registry.gauge(metric.name, metric.help,
                                   metric.label_names)
            for labels, value in metric.values.items():
                gauge.set(labels, value)

"""repro.obs — continuous telemetry for Dart runs.

Dart's pitch is *continuous* in-network monitoring; this package makes
the reproduction observable the same way: instead of one ``DartStats``
dump at end of trace, a run periodically exports its metric state while
packets are still flowing.

Layers:

* :mod:`.metrics` — ``Counter`` / ``Gauge`` / ``Histogram`` primitives
  with label support and a per-run :class:`MetricsRegistry`.  Hot-path
  writes are single dict operations; there are no locks (one registry
  per run, cross-shard aggregation happens on snapshots).
* :mod:`.snapshot` — :class:`Snapshot`, the frozen plain-data form that
  pickles across the cluster's process boundary and merges by
  summation (the repo's ``AdditiveCounters`` convention).
* :mod:`.exporters` — Prometheus text exposition and JSON lines, plus
  :func:`parse_prometheus` for round-trip verification.
* :mod:`.collect` — collectors that *sample* the counters monitors
  already keep, so telemetry costs nothing per packet and its overhead
  is bounded by the emission interval (``benchmarks/overheads.py``
  holds it to 250 ns per packet at a 50 ms interval).
* :mod:`.emitter` — :class:`TelemetryEmitter`, the periodic
  collect-snapshot-format-write driver the engine calls per chunk,
  and the shared ``--telemetry`` CLI flag family.
"""

from .collect import (
    DISTRIBUTION_LABELS,
    MONITOR_LABELS,
    VERDICT_LABELS,
    collect_distribution,
    collect_monitor,
    collect_stats,
)
from .emitter import (
    DEFAULT_INTERVAL_S,
    TELEMETRY_MODES,
    TelemetryEmitter,
    add_telemetry_arguments,
    emitter_from_args,
)
from .exporters import (
    TELEMETRY_SCHEMA,
    parse_prometheus,
    to_json,
    to_prometheus,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .snapshot import (
    SNAPSHOT_WIRE_SCHEMA,
    MetricSnapshot,
    Snapshot,
    absorb_into_registry,
    merge_snapshots,
    snapshot_registry,
)

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "DISTRIBUTION_LABELS",
    "MONITOR_LABELS",
    "MetricSnapshot",
    "MetricsRegistry",
    "SNAPSHOT_WIRE_SCHEMA",
    "Snapshot",
    "TELEMETRY_MODES",
    "TELEMETRY_SCHEMA",
    "TelemetryEmitter",
    "VERDICT_LABELS",
    "absorb_into_registry",
    "add_telemetry_arguments",
    "collect_distribution",
    "collect_monitor",
    "collect_stats",
    "emitter_from_args",
    "merge_snapshots",
    "parse_prometheus",
    "snapshot_registry",
    "to_json",
    "to_prometheus",
]

"""repro.obs — continuous telemetry for Dart runs.

Dart's pitch is *continuous* in-network monitoring; this package makes
the reproduction observable the same way: instead of one ``DartStats``
dump at end of trace, a run periodically exports its metric state while
packets are still flowing.

Layers:

* :mod:`.metrics` — ``Counter`` / ``Gauge`` / ``Histogram`` primitives
  with label support and a per-run :class:`MetricsRegistry`, the only
  metric state.  Hot-path writes are single dict operations; there are
  no locks (one registry per run).  A registry merges by summation
  (:meth:`MetricsRegistry.merge`, the repo's ``AdditiveCounters``
  convention), pickles as is across the cluster's process boundary,
  and crosses the fleet's JSON boundary as
  :meth:`MetricsRegistry.to_wire` / :meth:`MetricsRegistry.from_wire`.
* :mod:`.exporters` — render a registry as Prometheus text exposition
  or JSON lines, plus :func:`parse_prometheus` (back into a registry)
  for round-trip verification.
* :mod:`.collect` — collectors that *sample* the counters monitors
  already keep, so telemetry costs nothing per packet and its overhead
  is bounded by the emission interval (``benchmarks/overheads.py``
  holds it to 250 ns per packet at a 50 ms interval).
* :mod:`.emitter` — :class:`TelemetryEmitter`, the periodic
  collect-format-write driver the engine calls per chunk,
  and the shared ``--telemetry`` CLI flag family.
"""

from .collect import (
    DISTRIBUTION_LABELS,
    MONITOR_LABELS,
    VERDICT_LABELS,
    collect_distribution,
    collect_monitor,
    collect_registry,
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
    SNAPSHOT_WIRE_SCHEMA,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL_S",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "DISTRIBUTION_LABELS",
    "MONITOR_LABELS",
    "MetricsRegistry",
    "SNAPSHOT_WIRE_SCHEMA",
    "TELEMETRY_MODES",
    "TELEMETRY_SCHEMA",
    "TelemetryEmitter",
    "VERDICT_LABELS",
    "add_telemetry_arguments",
    "collect_distribution",
    "collect_monitor",
    "collect_registry",
    "collect_stats",
    "emitter_from_args",
    "parse_prometheus",
    "to_json",
    "to_prometheus",
]

"""Flow-sharded parallel Dart: multi-core trace processing.

The software analogue of running Dart on several hardware pipelines:
packets are routed to N independent Dart instances by a bidirectional
flow-shard hash (both directions of a connection always land on the
same instance), each shard processes its sub-stream with its own Range
Tracker, Packet Tracker, and analytics, and the per-shard results merge
into one cluster-wide view.

Public surface:

* :class:`ShardedDart` — the coordinator façade with the serial
  monitor's ``process_batch`` / ``finalize`` / ``stats`` / ``samples``
  surface (so :class:`repro.engine.MonitorEngine` drives it like any
  other monitor) and a ``parallel="process" | "serial"`` knob that only
  chooses where the workers run: every packet takes the same byte route
  to its shard either way.  Via ``monitor_factory`` it shards any
  registered :class:`repro.engine.RttMonitor`, not just Dart.
* :class:`ShardFailure` / :class:`ShardResult` — the failure and result
  types of the worker layer.
* :func:`shard_of` / :func:`shard_of_flow` / :func:`shard_of_wire` /
  :class:`ByteBatchDispatcher` — the sharding primitives and the one
  dispatcher.
* :class:`ShmRingTransport` — how process-mode byte batches cross the
  process boundary (a shared-memory ring per shard; there is no other
  transport, so process mode needs POSIX shared memory).
* ``merge_*`` — pure aggregation of stats, sample streams, and
  analytics window histories.
"""

from .coordinator import PARALLEL_MODES, ShardedDart
from .merge import (
    merge_results,
    merge_sample_lists,
    merge_stats,
    merge_telemetry,
    merge_window_histories,
)
from .sharding import (
    DEFAULT_BATCH_SIZE,
    SHARD_SALT,
    ByteBatchDispatcher,
    shard_of,
    shard_of_flow,
    shard_of_key_bytes,
    shard_of_wire,
)
from .transport import DEFAULT_BATCH_BYTES, ShmRingTransport
from .worker import (
    DEFAULT_JOIN_TIMEOUT,
    ClusterPartialResultWarning,
    InlineWorker,
    MonitorFactory,
    ProcessWorker,
    ShardFailure,
    ShardResult,
    harvest,
)

__all__ = [
    "ByteBatchDispatcher",
    "ClusterPartialResultWarning",
    "DEFAULT_BATCH_BYTES",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_JOIN_TIMEOUT",
    "InlineWorker",
    "MonitorFactory",
    "PARALLEL_MODES",
    "ProcessWorker",
    "SHARD_SALT",
    "ShardFailure",
    "ShardResult",
    "ShardedDart",
    "ShmRingTransport",
    "harvest",
    "merge_results",
    "merge_sample_lists",
    "merge_stats",
    "merge_telemetry",
    "merge_window_histories",
    "shard_of",
    "shard_of_flow",
    "shard_of_key_bytes",
    "shard_of_wire",
]

"""``ShardedDart``: the cluster façade with the serial monitor surface.

A :class:`ShardedDart` looks like a :class:`~repro.core.pipeline.Dart`
— ``process_trace`` / ``finalize`` / ``stats`` / ``samples`` — but fans
the packet stream out across N flow-sharded workers and merges their
results.  ``shards=1`` degenerates to the serial monitor (the worker
machinery is bypassed entirely), so callers can treat the shard count
as just another sizing knob.

Despite the name, the shards need not run Dart: ``monitor_factory``
accepts any zero-argument factory building a
:class:`repro.engine.RttMonitor` (``repro.engine.monitor_factory("tcptrace")``
shards the tcptrace oracle, for instance).  Flow-consistent sharding is
what makes this sound: every monitor in this library keys all its state
by canonical flow, so a flow's packets landing on one shard reproduce
the serial monitor's per-flow decisions exactly.  ``ShardedMonitor`` is
the name-accurate alias.

Failure model: any worker crash or hang surfaces as a
:class:`~repro.cluster.worker.ShardFailure` carrying the failed shard's
id and whatever partial results were recovered.  On failure the
coordinator aborts the remaining workers before raising — it never
deadlocks waiting on a dead worker, and never silently returns a partial
merge as if it were complete.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.analytics import WindowMinimum
from ..core.config import DartConfig
from ..core.pipeline import Dart, LegFilter, TargetFilter
from ..core.samples import RttSample
from ..net.packet import PacketRecord, from_wire_bytes
from ..net.scan import TCP_ONLY, scan_shard_key
from .merge import merge_results
from .sharding import (
    DEFAULT_BATCH_SIZE,
    BatchDispatcher,
    ByteBatchDispatcher,
)
from .worker import (
    DEFAULT_JOIN_TIMEOUT,
    MonitorFactory,
    ShardFailure,
    ShardResult,
    WORKER_MODES,
)

PARALLEL_MODES = tuple(WORKER_MODES)


class ShardedDart:
    """N flow-sharded Dart instances behind one Dart-shaped façade.

    Args:
        config: per-shard Dart configuration (each worker gets its own
            tables of this size — total memory scales with the shard
            count, exactly like adding hardware pipelines).
        shards: number of parallel Dart instances.  ``1`` short-circuits
            to a plain serial :class:`Dart`.
        parallel: ``"process"`` (multi-core, the default; needs POSIX
            shared memory — a host without it raises ``OSError`` here)
            or ``"serial"`` (inline, for debugging and ground-truth
            comparisons).
        monitor_factory: build one shard's monitor — any
            :class:`repro.engine.RttMonitor` factory; overrides
            ``config`` / ``analytics_factory`` / filters.  Must be
            callable in the worker context (any callable under fork;
            picklable under spawn).
        analytics_factory: build one shard's analytics module (a shared
            analytics *instance* cannot be handed to N workers).
        leg_filter / target_filter: as for :class:`Dart`.
        batch_size: records per dispatched batch.
        join_timeout: seconds to wait for a worker at ``finalize``
            before declaring it hung.
        fastpath: process-mode workers hand byte batches to the
            monitor's ``process_framed`` (packed records become kernel
            rows with one ``struct`` read, no record objects) whenever
            the monitor has one — same verdicts, stats, and samples.
            ``False`` forces ``process_batch(decode_batch(...))``: the
            reference leg of the cluster equivalence suite.  Serial
            mode has no byte boundary and ignores it.
    """

    def __init__(
        self,
        config: Optional[DartConfig] = None,
        *,
        shards: int = 1,
        parallel: str = "process",
        monitor_factory: Optional[MonitorFactory] = None,
        analytics_factory: Optional[Callable[[], object]] = None,
        leg_filter: Optional[LegFilter] = None,
        target_filter: Optional[TargetFilter] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        join_timeout: float = DEFAULT_JOIN_TIMEOUT,
        fastpath: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        if parallel not in WORKER_MODES:
            raise ValueError(
                f"parallel must be one of {sorted(WORKER_MODES)}, "
                f"got {parallel!r}"
            )
        if monitor_factory is None:
            def monitor_factory() -> Dart:
                analytics = (
                    analytics_factory() if analytics_factory is not None
                    else None
                )
                return Dart(
                    config,
                    analytics=analytics,
                    leg_filter=leg_filter,
                    target_filter=target_filter,
                )
        self.shards = shards
        self.parallel = parallel if shards > 1 else "serial"
        #: Whether process-mode workers were asked for ``process_framed``.
        self.fastpath = fastpath
        #: Multi-shard runs surface samples only after :meth:`finalize`
        #: (workers retain them until harvest); the engine reads this to
        #: route retained samples post-finalize instead of per batch.
        self.defers_samples = shards > 1
        #: Raw frames :meth:`process_wire` dropped because the header
        #: scanner could not shard them (non-IP, non-TCP, truncated
        #: before the ports) — the cluster twin of a capture reader
        #: skipping undecodable frames.
        self.wire_skipped = 0
        self._join_timeout = join_timeout
        self._results: Optional[List[ShardResult]] = None
        self._merged: Optional[ShardResult] = None
        #: Latest packet timestamp dispatched — every shard flushes its
        #: open analytics windows at this global end-of-trace time, so
        #: flush windows match a serial run's bit for bit.
        self._end_ns: Optional[int] = None
        self.dart: Optional[Any] = None
        self._workers: List = []
        self._dispatcher: Optional[Any] = None
        if shards == 1:
            # Degenerate case: the serial monitor itself, no workers,
            # no batching, live stats.
            self.dart = monitor_factory()
            return
        worker_cls = WORKER_MODES[parallel]
        try:
            for shard in range(shards):
                self._workers.append(
                    worker_cls(shard, monitor_factory, fastpath=fastpath)
                )
        except BaseException:
            # A ring that cannot be allocated or a process that cannot
            # start must not leave the earlier shards running.
            self._abort_workers()
            raise
        if parallel == "process":
            # Byte path: packets are framed as they are routed — the
            # coordinator never pickles an object graph, and of a raw
            # frame it reads at most the 40 fixed IPv4/TCP header bytes
            # (the full decode of anything else runs in the worker).
            self._dispatcher = ByteBatchDispatcher(
                shards, self._submit_bytes, batch_size=batch_size
            )
        else:
            # No serialization boundary: object batches are strictly
            # cheaper in-process.
            self._dispatcher = BatchDispatcher(
                shards, self._submit_records, batch_size=batch_size
            )

    # -- Packet entry points ----------------------------------------------

    def process(self, record: PacketRecord) -> List[RttSample]:
        """Route one packet to its shard.

        Unlike serial :meth:`Dart.process` this cannot return the
        packet's samples synchronously (the shard consumes the batch
        later); samples are available from :attr:`samples` after
        :meth:`finalize`.  With ``shards=1`` it delegates and behaves
        exactly like the serial pipeline.
        """
        if self.dart is not None:
            return self.dart.process(record)
        if self._results is not None:
            raise RuntimeError("ShardedDart already finalized")
        if self._end_ns is None or record.timestamp_ns > self._end_ns:
            self._end_ns = record.timestamp_ns
        self._dispatcher.dispatch(record)
        return []

    def process_trace(self, records: Iterable[PacketRecord]) -> "ShardedDart":
        """Dispatch an iterable of packets; returns self for chaining."""
        if self.dart is not None:
            self.dart.process_trace(records)
            return self
        if self._results is not None:
            raise RuntimeError("ShardedDart already finalized")
        dispatch = self._dispatcher.dispatch
        end_ns = self._end_ns
        for record in records:
            if end_ns is None or record.timestamp_ns > end_ns:
                end_ns = record.timestamp_ns
            dispatch(record)
        self._end_ns = end_ns
        return self

    def process_batch(
        self, records: Iterable[Optional[PacketRecord]]
    ) -> List[RttSample]:
        """Batched entry point mirroring :meth:`Dart.process_batch`.

        With one shard it delegates to the serial fast path (and returns
        that batch's samples); with several it dispatches the batch and
        returns ``[]`` — like :meth:`process`, sharded samples are only
        available from :attr:`samples` after :meth:`finalize`.  ``None``
        entries (non-TCP decode results) are skipped either way.
        """
        if self.dart is not None:
            return self.dart.process_batch(records)
        self.process_trace(r for r in records if r is not None)
        return []

    def process_wire(
        self,
        data: bytes,
        timestamp_ns: int,
        *,
        linktype_ethernet: bool = True,
    ) -> List[RttSample]:
        """Ingest one raw captured frame.

        In process mode an option-free IPv4/TCP frame has its 40 fixed
        header bytes parsed once, here, and only those fields — a
        37-byte record, not the frame — travel to the owning worker,
        as a switch parser hands its pipeline a header vector.  Any
        other frame (IP or TCP options, IPv6, malformed) is sharded by
        the pre-parse header scan and shipped *unparsed*; the owning
        worker runs the full decode.
        Frames the scanner cannot shard (non-IP, non-TCP, truncated
        before the L4 ports) are dropped and counted in
        :attr:`wire_skipped` — in every mode, so shard count never
        changes which frames are skipped.  Frames that scan but are
        malformed deeper in raise wherever the decode runs: inline
        here in serial mode, as a :class:`ShardFailure` from
        the owning shard in process mode.
        """
        if self._results is not None:
            raise RuntimeError("ShardedDart already finalized")
        if self._dispatcher is not None and isinstance(
            self._dispatcher, ByteBatchDispatcher
        ):
            # Process mode: one header parse (or scan) routes the frame.
            if not self._dispatcher.dispatch_wire(
                data, timestamp_ns,
                linktype_ethernet=linktype_ethernet, protocols=TCP_ONLY,
            ):
                self.wire_skipped += 1
                return []
            if self._end_ns is None or timestamp_ns > self._end_ns:
                self._end_ns = timestamp_ns
            return []
        # No byte transport below this point (serial mode, or one
        # shard): apply the same scanner gate — shard count and parallel
        # mode must never change *which* frames are skipped — then
        # decode inline.
        if scan_shard_key(
            data, linktype_ethernet=linktype_ethernet, protocols=TCP_ONLY
        ) is None:
            self.wire_skipped += 1
            return []
        record = from_wire_bytes(
            data, timestamp_ns, linktype_ethernet=linktype_ethernet
        )
        if record is None:
            self.wire_skipped += 1
            return []
        if self.dart is not None:
            return self.dart.process(record)
        if self._end_ns is None or timestamp_ns > self._end_ns:
            self._end_ns = timestamp_ns
        self._dispatcher.dispatch(record)
        return []

    def _submit_records(self, shard: int,
                        batch: List[PacketRecord]) -> None:
        try:
            self._workers[shard].submit(batch)
        except ShardFailure as failure:
            self._abort_workers(exclude=shard)
            raise failure

    def _submit_bytes(self, shard: int, payload: bytes) -> None:
        try:
            self._workers[shard].submit_bytes(payload)
        except ShardFailure as failure:
            self._abort_workers(exclude=shard)
            raise failure

    # -- Shutdown and results ----------------------------------------------

    def finalize(self, at_ns: Optional[int] = None) -> None:
        """Flush batches, join every worker, and merge their results.

        Idempotent.  ``at_ns`` overrides the end-of-trace timestamp the
        shards flush their analytics windows at, exactly like
        :meth:`Dart.finalize` — useful when this cluster saw only part
        of a stream whose true end is later.  Raises
        :class:`ShardFailure` (with the completed shards' results
        attached as ``partial``) if any worker crashed or missed the
        join timeout.
        """
        if self.dart is not None:
            self.dart.finalize(at_ns)
            return
        if self._results is not None:
            return
        if at_ns is not None and (self._end_ns is None or at_ns > self._end_ns):
            self._end_ns = at_ns
        self._dispatcher.flush()
        completed: Dict[int, ShardResult] = {}
        failure: Optional[ShardFailure] = None
        for worker in self._workers:
            if failure is None:
                try:
                    result = worker.finish(
                        timeout=self._join_timeout, end_ns=self._end_ns
                    )
                    completed[result.shard_id] = result
                except ShardFailure as exc:
                    failure = exc
            else:
                worker.abort()
        if failure is not None:
            failure.partial.update(completed)
            raise failure
        self._results = [completed[shard] for shard in range(self.shards)]
        self._merged = merge_results(self._results)

    def _abort_workers(self, *, exclude: Optional[int] = None) -> None:
        for worker in self._workers:
            if worker.shard_id != exclude:
                worker.abort()

    def _require_merged(self) -> ShardResult:
        self.finalize()
        assert self._merged is not None
        return self._merged

    # -- The Dart-shaped read surface --------------------------------------

    @property
    def stats(self) -> Any:
        """Cluster-wide counters (per-shard stats summed).

        Reading this (or :attr:`samples`) finalizes the cluster if the
        trace has not been finalized yet, mirroring how serial callers
        read ``dart.stats`` after ``process_trace``.
        """
        if self.dart is not None:
            return self.dart.stats
        return self._require_merged().stats

    @property
    def samples(self) -> List[RttSample]:
        """All shards' samples, interleaved by ACK arrival time."""
        if self.dart is not None:
            return self.dart.samples
        return self._require_merged().samples

    @property
    def window_history(self) -> List[WindowMinimum]:
        """Merged analytics window history, ordered by close time."""
        if self.dart is not None:
            analytics = getattr(self.dart, "analytics", None)
            return list(getattr(analytics, "history", ()))
        return self._require_merged().window_history

    @property
    def distribution(self) -> Optional[Any]:
        """Merged histogram/sketch distribution (None when not enabled).

        Like :attr:`stats`, reading this finalizes the cluster if the
        trace has not been finalized yet.  Per-shard snapshots merge by
        addition; flow-consistent sharding makes the result equal a
        serial monitor's distribution bin for bin.
        """
        if self.dart is not None:
            analytics = getattr(self.dart, "analytics", None)
            snapshot = getattr(analytics, "distribution_snapshot", None)
            return snapshot() if callable(snapshot) else None
        return self._require_merged().distribution

    @property
    def shard_results(self) -> List[ShardResult]:
        """Per-shard results (shard id order); finalizes if needed."""
        if self.dart is not None:
            from .worker import harvest

            return [harvest(0, self.dart)]
        self.finalize()
        assert self._results is not None
        return list(self._results)

    @property
    def shard_stats(self) -> List[Any]:
        """Per-shard counters, e.g. eviction/recirculation breakdowns."""
        return [result.stats for result in self.shard_results]

    # -- Telemetry ----------------------------------------------------------

    def collect_telemetry(self, registry: Any, name: str) -> None:
        """Sample cluster state into an obs registry (emission-time hook).

        The engine's telemetry collector calls this instead of the
        generic monitor path because reading :attr:`stats` mid-run
        would finalize the cluster.  What it reports depends on phase:

        * mid-flight — coordinator-side observables only: per-shard
          inbox depth, worker liveness, and packets dispatched (the
          workers' own counters live in other processes until harvest);
        * after finalize — the per-shard worker snapshots that shipped
          home inside each ``ShardResult``, summed into the registry,
          plus merge/partial/window-loss accounting.
        """
        if self.dart is not None:
            from ..obs.collect import collect_monitor

            collect_monitor(registry, self.dart, name)
            return
        shard_labels = ("monitor", "shard")
        ring_depth = registry.gauge(
            "dart_cluster_queue_depth",
            "Unconsumed bytes in this shard's ring (-1: ring gone)",
            shard_labels,
        )
        alive = registry.gauge(
            "dart_cluster_worker_alive",
            "1 while the shard's worker is alive", shard_labels,
        )
        for worker in self._workers:
            depth, live = worker.telemetry_probe()
            labels = (name, str(worker.shard_id))
            ring_depth.set(labels, depth)
            alive.set(labels, 1 if live else 0)
        dispatched = registry.counter(
            "dart_cluster_dispatched_total",
            "Packets routed to this shard so far", shard_labels,
        )
        for shard, count in self._dispatcher.dispatched.items():
            dispatched.set_cumulative((name, str(shard)), count)
        registry.counter(
            "dart_cluster_wire_skipped_total",
            "Raw frames dropped by the pre-parse shard scanner",
            ("monitor",),
        ).set_cumulative((name,), self.wire_skipped)
        if self._merged is None:
            return
        registry.counter(
            "dart_cluster_merges_total",
            "Cluster-wide result merges performed", ("monitor",),
        ).set_cumulative((name,), 1)
        registry.counter(
            "dart_cluster_partial_shards_total",
            "Shards whose results were partial (failed mid-trace)",
            ("monitor",),
        ).set_cumulative(
            (name,), sum(1 for r in self._results if r.partial)
        )
        registry.counter(
            "dart_cluster_windows_lost_total",
            "In-flight analytics windows dropped by partial harvests",
            ("monitor", "shard"),
        ).set_cumulative((name, ""), self._merged.windows_lost)
        if self._merged.telemetry is not None:
            registry.absorb(self._merged.telemetry)
        if self._merged.distribution is not None:
            from ..obs.collect import collect_distribution

            collect_distribution(registry, self._merged.distribution, name)

    def range_collapses(self) -> int:
        """Total Range Tracker collapses across shards.

        Zero for monitors without a Range Tracker (the baselines).
        """
        if self.dart is not None:
            range_tracker = getattr(self.dart, "range_tracker", None)
            if range_tracker is None:
                return 0
            return range_tracker.stats.total_collapses
        return self._require_merged().rt_collapses


#: Name-accurate alias: the coordinator shards any registered monitor,
#: not just Dart.  ``ShardedDart`` remains the primary name for
#: backward compatibility.
ShardedMonitor = ShardedDart

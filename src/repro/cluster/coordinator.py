"""``ShardedDart``: the cluster façade with the serial monitor surface.

A :class:`ShardedDart` looks like a :class:`~repro.core.pipeline.Dart`
— ``process_batch`` / ``finalize`` / ``stats`` / ``samples`` — but fans
the packet stream out across N flow-sharded workers and merges their
results.  Every packet takes one route to its shard whatever the mode
or shard count: :class:`~repro.cluster.sharding.ByteBatchDispatcher`
frames it into its shard's byte batch, and the shard's worker hands
each batch to the monitor — inline in ``parallel="serial"``, over a
shared-memory ring in ``parallel="process"``.  One shard is one worker.

Despite the name, the shards need not run Dart: ``monitor_factory``
accepts any zero-argument factory building a
:class:`repro.engine.RttMonitor` (``repro.engine.monitor_factory("tcptrace")``
shards the tcptrace oracle, for instance).  Flow-consistent sharding is
what makes this sound: every monitor in this library keys all its state
by canonical flow, so a flow's packets landing on one shard reproduce
the serial monitor's per-flow decisions exactly.

Failure model, the same in both modes: any worker crash, hang or
monitor exception surfaces as a
:class:`~repro.cluster.worker.ShardFailure` carrying the failed shard's
id and whatever partial results were recovered.  On failure the
coordinator aborts the remaining workers before raising — it never
deadlocks waiting on a dead worker — and stays failed: every later
``finalize`` or read raises that same failure, never a partial merge
dressed up as a complete one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NoReturn, Optional

from ..core.analytics import WindowMinimum
from ..core.config import DartConfig
from ..core.pipeline import Dart, LegFilter, TargetFilter
from ..core.samples import RttSample
from ..net.packet import PacketRecord
from .merge import merge_results
from .sharding import DEFAULT_BATCH_SIZE, ByteBatchDispatcher
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
        shards: number of parallel Dart instances (workers).
        parallel: ``"process"`` (multi-core, the default; needs POSIX
            shared memory — a host without it raises ``OSError`` here)
            or ``"serial"`` (the same workers run inline, for debugging
            and coverage tracing).
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
        fastpath: workers hand byte batches to the monitor's
            ``process_framed`` (packed records become kernel rows with
            one ``struct`` read, no record objects) whenever the monitor
            has one — same verdicts, stats, and samples.  ``False``
            forces ``process_batch(decode_batch(...))``, in either mode:
            the reference leg of the cluster equivalence suite.
    """

    #: Samples surface only after :meth:`finalize` (workers retain them
    #: until harvest); the engine reads this to route retained samples
    #: post-finalize instead of per batch.
    defers_samples = True

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
        self.parallel = parallel
        #: Whether the workers were asked for ``process_framed``.
        self.fastpath = fastpath
        #: Raw frames :meth:`process_wire` dropped because the header
        #: scanner could not shard them (non-IP, non-TCP, truncated
        #: before the ports) — the cluster twin of a capture reader
        #: skipping undecodable frames.
        self.wire_skipped = 0
        self._join_timeout = join_timeout
        #: Set once :meth:`finalize` succeeded or a shard failed; no
        #: packet is accepted after that.
        self._closed = False
        self._failure: Optional[ShardFailure] = None
        self._results: Optional[List[ShardResult]] = None
        self._merged: Optional[ShardResult] = None
        #: Latest packet timestamp dispatched — every shard flushes its
        #: open analytics windows at this global end-of-trace time, so
        #: flush windows match a serial run's bit for bit.
        self._end_ns: Optional[int] = None
        self._workers: List = []
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
        # Packets are framed as they are routed — the coordinator never
        # builds an object graph per batch, and of a raw frame it reads
        # at most the 40 fixed IPv4/TCP header bytes (the full decode of
        # anything else runs in the worker).
        self._dispatcher = ByteBatchDispatcher(
            shards, self._submit_bytes, batch_size=batch_size
        )

    # -- Packet entry points ----------------------------------------------

    def process(self, record: PacketRecord) -> List[RttSample]:
        """Route one packet to its shard.

        Unlike serial :meth:`Dart.process` this cannot return the
        packet's samples synchronously (the shard consumes the batch
        later); samples are available from :attr:`samples` after
        :meth:`finalize`.
        """
        return self.process_batch((record,))

    def process_batch(
        self, records: Iterable[Optional[PacketRecord]]
    ) -> List[RttSample]:
        """Batched entry point mirroring :meth:`Dart.process_batch`.

        Dispatches the batch and returns ``[]`` — like :meth:`process`,
        sharded samples are only available from :attr:`samples` after
        :meth:`finalize`.  ``None`` entries (non-TCP decode results)
        are skipped.
        """
        if self._closed:
            self._refuse()
        dispatch = self._dispatcher.dispatch
        end_ns = self._end_ns
        for record in records:
            if record is None:
                continue
            if end_ns is None or record.timestamp_ns > end_ns:
                end_ns = record.timestamp_ns
            dispatch(record)
        self._end_ns = end_ns
        return []

    def process_wire(
        self,
        data: bytes,
        timestamp_ns: int,
        *,
        linktype_ethernet: bool = True,
    ) -> List[RttSample]:
        """Ingest one raw captured frame.

        An option-free IPv4/TCP frame has its 40 fixed header bytes
        parsed once, here, and only those fields — a 37-byte record,
        not the frame — travel to the owning worker, as a switch parser
        hands its pipeline a header vector.  Any other frame (IP or TCP
        options, IPv6, malformed) is sharded by the pre-parse header
        scan and shipped *unparsed*; the owning worker runs the full
        decode.  Frames the scanner cannot shard (non-IP, non-TCP,
        truncated before the L4 ports) are dropped and counted in
        :attr:`wire_skipped`.  Frames that scan but are malformed
        deeper in fail in their owning shard, as a
        :class:`ShardFailure`.  All of this holds in both modes and at
        any shard count: the route is the same.
        """
        if self._closed:
            self._refuse()
        if not self._dispatcher.dispatch_wire(
            data, timestamp_ns, linktype_ethernet=linktype_ethernet
        ):
            self.wire_skipped += 1
        elif self._end_ns is None or timestamp_ns > self._end_ns:
            self._end_ns = timestamp_ns
        return []

    def _submit_bytes(self, shard: int, payload: bytes) -> None:
        try:
            self._workers[shard].submit_bytes(payload)
        except ShardFailure as failure:
            self._fail(failure)

    # -- Shutdown and results ----------------------------------------------

    def finalize(self, at_ns: Optional[int] = None) -> None:
        """Flush batches, join every worker, and merge their results.

        Idempotent.  ``at_ns`` overrides the end-of-trace timestamp the
        shards flush their analytics windows at, exactly like
        :meth:`Dart.finalize` — useful when this cluster saw only part
        of a stream whose true end is later.  Raises
        :class:`ShardFailure` (with the completed shards' results
        attached as ``partial``) if any worker crashed or missed the
        join timeout — and raises that same failure on every later call.
        """
        if self._closed:
            if self._failure is not None:
                raise self._failure
            return
        if at_ns is not None and (self._end_ns is None or at_ns > self._end_ns):
            self._end_ns = at_ns
        self._dispatcher.flush()
        completed: Dict[int, ShardResult] = {}
        try:
            for worker in self._workers:
                result = worker.finish(
                    timeout=self._join_timeout, end_ns=self._end_ns
                )
                completed[result.shard_id] = result
        except ShardFailure as failure:
            failure.partial.update(completed)
            self._fail(failure)
        self._closed = True
        self._results = [completed[shard] for shard in range(self.shards)]
        self._merged = merge_results(self._results)

    def _fail(self, failure: ShardFailure) -> NoReturn:
        """Stop every worker and keep ``failure`` as the cluster's
        answer from now on."""
        self._closed = True
        self._failure = failure
        self._abort_workers()
        raise failure

    def _refuse(self) -> NoReturn:
        if self._failure is not None:
            raise self._failure
        raise RuntimeError("ShardedDart already finalized")

    def _abort_workers(self) -> None:
        for worker in self._workers:
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
        trace has not been finalized yet, so a caller can read it
        straight after feeding the trace, as it would a serial Dart's.
        """
        return self._require_merged().stats

    @property
    def samples(self) -> List[RttSample]:
        """All shards' samples, interleaved by ACK arrival time."""
        return self._require_merged().samples

    @property
    def window_history(self) -> List[WindowMinimum]:
        """Merged analytics window history, ordered by close time."""
        return self._require_merged().window_history

    @property
    def distribution(self) -> Optional[Any]:
        """Merged histogram/sketch distribution (None when not enabled).

        Like :attr:`stats`, reading this finalizes the cluster if the
        trace has not been finalized yet.  Per-shard snapshots merge by
        addition; flow-consistent sharding makes the result equal a
        serial monitor's distribution bin for bin.
        """
        return self._require_merged().distribution

    @property
    def shard_results(self) -> List[ShardResult]:
        """Per-shard results (shard id order); finalizes if needed."""
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
        return self._require_merged().rt_collapses


"""MonitorEngine: one trace pass feeding any number of monitors.

The engine owns the plumbing every frontend used to duplicate:

* **ingest + batching** — drains the record iterable in
  ``TRACE_CHUNK``-sized chunks so each monitor gets its loop-hoisted
  ``process_batch`` fast path without materialising the trace;
* **record partitioning** — ``None`` gaps from partial decodes are
  dropped (and not counted); when TCP and QUIC monitors run in the same
  pass, each chunk is split by record type and each monitor sees only
  its kind;
* **sample routing** — each monitor gets a :class:`.SampleRouter`; the
  samples returned by ``process_batch`` are fanned out immediately, so
  streaming sinks (files, detectors, live analytics) see samples in
  emission order;
* **finalization** — after the trace drains, every monitor's
  ``finalize(end_ns)`` runs with the last observed timestamp, then
  routers flush and close.  Monitors that defer samples until finalize
  (``defers_samples = True``, e.g.
  :class:`~repro.cluster.coordinator.ShardedDart`) have their retained
  ``samples`` routed at that point instead.

The engine assumes records are time-ordered (every producer in this
repo emits them that way), so the end-of-trace timestamp is read from
each chunk's last record — O(1) per chunk, not per packet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.pipeline import TRACE_CHUNK
from ..quic.packet import QuicPacketRecord
from .protocol import RttMonitor, conforms_to_monitor
from .router import SampleRouter


@dataclass(slots=True)
class MonitorRun:
    """One monitor's slot in an engine pass."""

    name: str
    monitor: RttMonitor
    router: SampleRouter
    record_kind: str  # "tcp" | "quic"
    records_seen: int = 0
    samples_routed: int = 0
    finalize_seconds: float = 0.0


@dataclass(slots=True)
class EngineReport:
    """What one :meth:`MonitorEngine.run` pass did."""

    records: int = 0
    wall_seconds: float = 0.0
    end_ns: Optional[int] = None
    runs: List[MonitorRun] = field(default_factory=list)

    @property
    def records_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.records / self.wall_seconds


class MonitorEngine:
    """Drives registered monitors through a single trace pass.

    ``telemetry`` attaches a :class:`repro.obs.TelemetryEmitter`: the
    engine registers a collector covering itself and every attached
    monitor, times each monitor's per-chunk ``process_batch`` into a
    histogram, and gives the emitter one interval check per ingest
    chunk — so a live run periodically exports its metric state while
    the trace is still flowing.  With ``telemetry=None`` (the default)
    the loop contains a single ``is None`` test per chunk and the obs
    machinery is never imported, keeping the telemetry-off fast path
    allocation-free.
    """

    def __init__(self, *, chunk_size: int = TRACE_CHUNK,
                 telemetry: Optional[Any] = None) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self._chunk_size = chunk_size
        self._runs: List[MonitorRun] = []
        self._names: Dict[str, MonitorRun] = {}
        self._telemetry = telemetry
        self._records = 0
        self._end_ns: Optional[int] = None
        self._started: Optional[float] = None
        self._finished = False
        self._report: Optional[EngineReport] = None
        self._chunk_seconds: Optional[Any] = None
        self._chunk_pps: Optional[Any] = None
        if telemetry is not None:
            telemetry.add_collector(self._collect_telemetry)
            self._chunk_seconds = telemetry.registry.histogram(
                "dart_engine_chunk_seconds",
                "Wall time one monitor spends on one ingest chunk",
                ("monitor",),
            )
            self._chunk_pps = telemetry.registry.gauge(
                "dart_engine_chunk_pps",
                "Throughput over the most recent chunk", ("monitor",),
            )

    # -- wiring ---------------------------------------------------------------

    def add_monitor(
        self,
        monitor: RttMonitor,
        *,
        name: Optional[str] = None,
        sinks: Iterable = (),
        record_kind: str = "tcp",
    ) -> MonitorRun:
        """Attach a monitor (with optional sample sinks) to this engine."""
        if not conforms_to_monitor(monitor):
            raise TypeError(
                f"{type(monitor).__name__} does not satisfy the RttMonitor "
                "protocol (needs stats, samples, process, process_batch, "
                "finalize)"
            )
        if record_kind not in ("tcp", "quic"):
            raise ValueError(f"unknown record kind {record_kind!r}")
        if name is None:
            name = type(monitor).__name__.lower()
        if name in self._names:
            raise ValueError(f"monitor name {name!r} already attached")
        run = MonitorRun(
            name=name,
            monitor=monitor,
            router=SampleRouter(sinks),
            record_kind=record_kind,
        )
        self._runs.append(run)
        self._names[name] = run
        return run

    @property
    def runs(self) -> Tuple[MonitorRun, ...]:
        return tuple(self._runs)

    def __getitem__(self, name: str) -> MonitorRun:
        return self._names[name]

    # -- the trace pass -------------------------------------------------------

    @property
    def records(self) -> int:
        """Records ingested so far (across every ``ingest_chunk``)."""
        return self._records

    @property
    def end_ns(self) -> Optional[int]:
        """Timestamp of the most recent decoded record, if any."""
        return self._end_ns

    def restore_progress(self, *, records: int,
                         end_ns: Optional[int]) -> None:
        """Seed ingest counters when resuming from a checkpoint.

        The monitors themselves are restored by unpickling; this only
        re-aligns the engine's report counters so a resumed run's
        :class:`EngineReport` describes the whole logical run.
        """
        if self._records:
            raise RuntimeError("cannot restore progress after ingest started")
        self._records = records
        self._end_ns = end_ns

    def _begin_ingest(self) -> None:
        """What every ingest entry point checks first; starts the
        report's wall clock on the first call."""
        if not self._runs:
            raise RuntimeError("no monitors attached (call add_monitor first)")
        if self._finished:
            raise RuntimeError("engine already finished")
        if self._started is None:
            self._started = time.perf_counter()

    def ingest_chunk(self, chunk: List[Any]) -> None:
        """Feed one chunk of records to every attached monitor.

        The streaming entry point: callers that do not hold the whole
        trace (a tailing source, a paced replay) push chunks as they
        materialise and call :meth:`finish` when the stream ends.
        Samples are routed as they are emitted, exactly as in
        :meth:`run`.  ``None`` entries (decode gaps) reach no monitor
        and are not counted as records.
        """
        self._begin_ingest()
        # Records are never falsy (a record is a non-empty tuple), so
        # this drops exactly the ``None`` gaps, in one C-level pass.
        chunk = list(filter(None, chunk))
        if not chunk:
            return
        self._records += len(chunk)
        kinds = {run.record_kind for run in self._runs}
        if len(kinds) == 2:
            tcp_chunk = [
                r for r in chunk if not isinstance(r, QuicPacketRecord)
            ]
            quic_chunk = [
                r for r in chunk if isinstance(r, QuicPacketRecord)
            ]
        elif kinds == {"quic"}:
            tcp_chunk = []
            quic_chunk = chunk
        else:
            tcp_chunk = chunk
            quic_chunk = []
        # Records are time-ordered: the chunk's last record carries the
        # most recent timestamp.
        self._end_ns = chunk[-1].timestamp_ns
        for run in self._runs:
            part = quic_chunk if run.record_kind == "quic" else tcp_chunk
            if part:
                self._feed(run, run.monitor.process_batch, part, len(part))
        if self._telemetry is not None:
            self._telemetry.maybe_emit()

    def _feed(self, run: MonitorRun, fn: Callable[[Any], list], arg: Any,
              count: int) -> None:
        """Hand one monitor its share of a chunk — ``fn(arg)``, holding
        ``count`` packets — timing the call when telemetry is on, and
        route the samples it returns."""
        run.records_seen += count
        if self._telemetry is not None:
            chunk_started = time.perf_counter()
            samples = fn(arg)
            elapsed = time.perf_counter() - chunk_started
            self._chunk_seconds.observe(elapsed, (run.name,))
            if elapsed > 0:
                # Per-batch throughput: the live pps this monitor
                # sustained over its most recent chunk.
                self._chunk_pps.set((run.name,), count / elapsed)
        else:
            samples = fn(arg)
        if samples:
            run.samples_routed += len(samples)
            run.router.route_batch(samples)

    def ingest_columns(self, cols: Any) -> None:
        """Feed one decoded columnar batch
        (:class:`~repro.net.columnar.PacketColumns`) to every monitor.

        The fast-path twin of :meth:`ingest_chunk`: monitors exposing
        ``process_columns`` consume the columns directly; others get
        the materialised per-record view.  Report counters stay
        byte-identical to the object path — skip rows (frames that
        decode to non-TCP) are not counted, exactly as the capture
        readers drop them before the object path ever sees them.

        Column batches only carry the TCP view, so an engine with a
        QUIC monitor attached falls back to :meth:`ingest_chunk` on
        the materialised records.
        """
        self._begin_ingest()
        decoded = cols.decoded_count()
        if decoded == 0:
            return
        if {run.record_kind for run in self._runs} != {"tcp"}:
            self.ingest_chunk(cols.compact_records())
            return
        self._records += decoded
        last = cols.last_timestamp_ns()
        if last is not None:
            self._end_ns = last
        for run in self._runs:
            process_columns = getattr(run.monitor, "process_columns", None)
            if process_columns is not None:
                self._feed(run, process_columns, cols, decoded)
            else:
                # Materialising records is decode work: kept out of
                # the monitor's timed call, as on the object path.
                self._feed(run, run.monitor.process_batch,
                           cols.compact_records(), decoded)
        if self._telemetry is not None:
            self._telemetry.maybe_emit()

    def ingest_wire_chunk(self, chunk: List[Tuple[int, bool, bytes]],
                          *, fastpath: bool = True) -> None:
        """Decode one chunk of raw capture frames and feed it.

        ``chunk`` holds ``(timestamp_ns, linktype_ethernet, frame)``
        tuples as produced by :class:`~repro.net.pcapng.FrameReader` —
        what ``dart-replay`` reads and every streaming source yields.
        The decoder is chosen from what the engine can observe: with
        numpy importable the frames decode columnar
        (:meth:`ingest_columns`, which hands columns to monitors that
        take them and records to the rest); without it each frame goes
        through ``from_wire_bytes`` and :meth:`ingest_chunk`.  Non-TCP
        frames are dropped either way, so report counters match.
        ``fastpath=False`` forces the object decoder — the reference
        leg the differential tests compare the columnar one against.
        """
        from ..net import columnar
        from ..net.packet import from_wire_bytes

        if fastpath and columnar.HAVE_NUMPY:
            self.ingest_columns(columnar.decode_wire_columns(chunk))
            return
        self.ingest_chunk([
            from_wire_bytes(frame, ts, linktype_ethernet=eth)
            for ts, eth, frame in chunk
        ])

    def finish(self) -> EngineReport:
        """Finalize monitors, route deferred samples, close routers.

        Idempotent: the second and later calls return the same report
        without re-finalizing (so a signal handler and a normal exit
        path can both call it safely).
        """
        if self._finished:
            assert self._report is not None
            return self._report
        if not self._runs:
            raise RuntimeError("no monitors attached (call add_monitor first)")
        if self._started is None:
            self._started = time.perf_counter()
        report = EngineReport(records=self._records, runs=list(self._runs))
        for run in self._runs:
            finalize_started = time.perf_counter()
            run.monitor.finalize(self._end_ns)
            run.finalize_seconds = time.perf_counter() - finalize_started
            if getattr(run.monitor, "defers_samples", False):
                # Sharded monitors only surface samples after finalize
                # (their shards retain samples locally until harvest).
                samples = run.monitor.samples
                run.samples_routed += len(samples)
                run.router.route_batch(samples)
            run.router.close()
        report.wall_seconds = time.perf_counter() - self._started
        report.end_ns = self._end_ns
        if self._telemetry is not None:
            # End-of-trace emission: even a sub-interval run exports its
            # final state (and sharded monitors their merged counters).
            self._telemetry.close()
        self._finished = True
        self._report = report
        return report

    def _chunks(self, items: Iterable[Any]) -> Iterable[List[Any]]:
        """``items`` in lists of at most ``chunk_size``."""
        iterator = iter(items)
        while chunk := list(islice(iterator, self._chunk_size)):
            yield chunk

    def run(self, records: Iterable[Any]) -> EngineReport:
        """Feed every record to every attached monitor, then finalize."""
        self._begin_ingest()
        for chunk in self._chunks(records):
            self.ingest_chunk(chunk)
        return self.finish()

    def run_frames(self, frames: Iterable[Any]) -> EngineReport:
        """:meth:`run` for raw capture frames: every ``(timestamp_ns,
        linktype_ethernet, frame)`` goes through
        :meth:`ingest_wire_chunk`, which picks the decoder."""
        self._begin_ingest()
        for chunk in self._chunks(frames):
            self.ingest_wire_chunk(chunk)
        return self.finish()

    # -- streaming hand-off ----------------------------------------------------

    def drain_retained(self) -> int:
        """Empty every monitor's retained sample copy; return the count.

        Samples were already routed to sinks at emission time, so the
        retained lists are pure memory growth in a continuous run.
        Monitors that defer samples to finalize (``defers_samples``)
        are skipped — their retained list is the only copy.  Monitors
        without a ``drain_samples`` method are left alone.
        """
        drained = 0
        for run in self._runs:
            if getattr(run.monitor, "defers_samples", False):
                continue
            drain = getattr(run.monitor, "drain_samples", None)
            if drain is not None:
                drained += len(drain())
        return drained

    def flush_routers(self) -> None:
        """Push buffered samples through to every attached sink."""
        for run in self._runs:
            run.router.flush()

    # -- telemetry ------------------------------------------------------------

    def _collect_telemetry(self, registry: Any) -> None:
        """Sample engine + per-monitor state (runs once per emission)."""
        from ..obs.collect import collect_monitor

        records_total = registry.counter(
            "dart_engine_records_total",
            "Records this monitor has been fed", ("monitor",),
        )
        routed_total = registry.counter(
            "dart_engine_samples_routed_total",
            "RTT samples fanned out to this monitor's sinks", ("monitor",),
        )
        fanout = registry.gauge(
            "dart_engine_sink_fanout",
            "Sinks attached to this monitor's sample router", ("monitor",),
        )
        finalize_seconds = registry.gauge(
            "dart_engine_finalize_seconds",
            "Wall time of this monitor's end-of-trace finalize",
            ("monitor",),
        )
        for run in self._runs:
            labels = (run.name,)
            records_total.set_cumulative(labels, run.records_seen)
            routed_total.set_cumulative(labels, run.samples_routed)
            fanout.set(labels, len(run.router))
            finalize_seconds.set(labels, run.finalize_seconds)
            collect_monitor(registry, run.monitor, run.name)

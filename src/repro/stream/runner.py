"""StreamRunner: the continuous-operation loop.

Ties the pieces together: pull chunks of raw frames from a
:class:`PacketSource`, push them through a
:class:`~repro.engine.MonitorEngine` (``ingest_wire_chunk``, which
picks the decoder), and on a
cadence (a) *rotate* — drain retained samples and closed analytics
windows so memory stays bounded by the rotation interval instead of
the run length — and (b) *checkpoint* — snapshot everything needed to
continue the run in a fresh process.

Two ways a run ends:

* **exhausted** — the source's generator returns (one-shot file done,
  tail hit its idle timeout, ``--max-records`` reached).  Monitors are
  finalized through :meth:`MonitorEngine.finish` (flushing open
  trackers and analytics windows), and the final checkpoint is marked
  ``finalized`` — resuming from it is refused.
* **stopped** — a shutdown was requested (SIGTERM/SIGINT).  Monitors
  are *not* finalized: open state is exactly what the checkpoint needs
  so a resumed process continues sample-for-sample.  Sinks are flushed,
  offsets recorded, checkpoint written, exit clean.

Checkpoints are only ever taken at chunk boundaries (never with a
partially processed chunk in flight), which is what makes the resumed
run byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .signals import GracefulShutdown
from .sinks import ResumableSink
from .sources import PacketSource


class StreamHook:
    """Extension point for periodic work riding the streaming loop.

    Subclasses (e.g. the fleet delta exporter) override what they need;
    the defaults are no-ops, so a hook only pays for what it uses.  The
    runner guarantees:

    * :meth:`on_chunk` runs once per loop iteration — including idle
      polls on a quiet tail — so time-based work (delta pushes,
      heartbeats) ticks even when no packets arrive.
    * :meth:`flush` runs inside every checkpoint, *before* the
      checkpoint file is written; :meth:`checkpoint_payload` is then
      included in the checkpoint under ``payload["hooks"][name]``, so
      hook state survives restarts with the same durability as monitor
      state.  A hook must never raise from :meth:`flush` merely because
      a remote peer is down — a checkpoint must not fail because the
      network did.
    * :meth:`on_stop` runs exactly once at the end of the run, in both
      endgames, after the final checkpoint has landed.
    """

    name = "hook"

    def on_chunk(self, runner: "StreamRunner") -> None:
        """Called once per loop iteration (idle iterations included)."""

    def flush(self) -> None:
        """Called inside each checkpoint, before the file is written."""

    def checkpoint_payload(self) -> Any:
        """Picklable state to store under ``payload['hooks'][name]``."""
        return None

    def restore(self, state: Any) -> None:
        """Re-arm from a loaded checkpoint's hook payload."""

    def on_stop(self, *, stopped: bool) -> None:
        """End of run; ``stopped`` distinguishes signal from exhausted."""


@dataclass(slots=True)
class StreamReport:
    """What one streaming run (or run segment) did."""

    records: int = 0
    wall_seconds: float = 0.0
    end_ns: Optional[int] = None
    stopped: bool = False  # True: shutdown signal; False: source exhausted
    finalized: bool = False
    checkpoints: int = 0
    rotations: int = 0
    samples_drained: int = 0
    windows_shipped: int = 0
    checkpoint_path: Optional[str] = None
    sink_counts: Dict[str, int] = field(default_factory=dict)


class StreamRunner:
    """Drives a MonitorEngine from a PacketSource, continuously.

    ``engine`` must have its monitors attached (with their sinks) before
    :meth:`run`; ``sinks`` lists the :class:`ResumableSink` objects whose
    offsets belong in the checkpoint (normally the same objects attached
    to the engine's routers, plus the window sink).  ``analytics`` (a
    :class:`~repro.core.analytics.MinFilterAnalytics`, optional) has its
    closed windows drained to ``window_sink`` on every rotation.

    ``shutdown`` is polled between chunks; ``checkpoint_path=None``
    disables checkpointing (the runner still rotates).  ``clock`` is
    injectable for tests.
    """

    def __init__(
        self,
        engine: Any,
        source: PacketSource,
        *,
        shutdown: Optional[GracefulShutdown] = None,
        sinks: Optional[List[ResumableSink]] = None,
        analytics: Optional[Any] = None,
        window_sink: Optional[ResumableSink] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval_s: float = 30.0,
        rotation_records: int = 65536,
        chunk_size: int = 8192,
        max_records: Optional[int] = None,
        telemetry: Optional[Any] = None,
        hooks: Optional[List[StreamHook]] = None,
        clock=time.monotonic,
    ) -> None:
        if rotation_records <= 0:
            raise ValueError("rotation_records must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive")
        self._engine = engine
        self._source = source
        self._shutdown = shutdown
        self._sinks = list(sinks or [])
        self._analytics = analytics
        self._window_sink = window_sink
        self._checkpoint_path = checkpoint_path
        self._checkpoint_interval = checkpoint_interval_s
        self._rotation_records = rotation_records
        self._chunk_size = chunk_size
        self._max_records = max_records
        self._clock = clock
        self._since_rotation = 0
        self._initial_records = 0
        self._report = StreamReport()
        self._last_checkpoint_wall: Optional[float] = None
        self._last_checkpoint_seconds = 0.0
        self._last_checkpoint_bytes = 0
        self._live_pps = 0.0
        self._hooks = list(hooks or [])
        self._telemetry = telemetry
        if telemetry is not None:
            telemetry.add_collector(self._collect_telemetry)

    # -- checkpoint restore ------------------------------------------------

    def restore(self, header: Dict[str, Any]) -> None:
        """Re-align runner counters from a loaded checkpoint header."""
        runner_state = header.get("runner", {})
        self._engine.restore_progress(
            records=int(runner_state.get("records", 0)),
            end_ns=runner_state.get("end_ns"),
        )
        self._initial_records = int(runner_state.get("records", 0))
        self._since_rotation = int(runner_state.get("since_rotation", 0))

    # -- the loop ----------------------------------------------------------

    def run(self) -> StreamReport:
        report = self._report
        started = self._clock()
        self._last_checkpoint_wall = started
        stopped = False
        for chunk in self._source.chunks(self._chunk_size):
            # Every chunk pulled from the source is ingested: the source
            # advanced its resume offset past these records, so dropping
            # a pulled chunk (e.g. on shutdown) would lose them from the
            # checkpoint.  The shutdown check runs after, never between
            # pull and ingest.
            before = self._engine.records
            if chunk:
                chunk_started = self._clock()
                self._engine.ingest_wire_chunk(
                    chunk, fastpath=self._source.fastpath
                )
                elapsed = self._clock() - chunk_started
            n = self._engine.records - before  # frames that decoded to TCP
            if n:
                if elapsed > 0:
                    self._live_pps = n / elapsed
                self._since_rotation += n
                if self._since_rotation >= self._rotation_records:
                    self._rotate()
            elif self._telemetry is not None:
                # Idle poll: the engine only ticks the emitter when fed,
                # so a quiet daemon still exports fresh metric state.
                self._telemetry.maybe_emit()
            for hook in self._hooks:
                hook.on_chunk(self)
            if (
                self._checkpoint_path is not None
                and self._clock() - self._last_checkpoint_wall
                >= self._checkpoint_interval
            ):
                self._checkpoint(finalized=False)
            if (
                self._max_records is not None
                and self._engine.records - self._initial_records
                >= self._max_records
            ):
                break
            if self._shutdown is not None and self._shutdown.triggered:
                stopped = True
                break
        self._source.close()
        if stopped:
            self._drain_without_finalize()
        else:
            self._finalize()
        report.records = self._engine.records
        report.end_ns = self._engine.end_ns
        report.stopped = stopped
        report.wall_seconds = self._clock() - started
        report.checkpoint_path = self._checkpoint_path
        for sink in self._sinks:
            report.sink_counts[sink.path] = sink.count
        return report

    # -- rotation ----------------------------------------------------------

    def _rotate(self) -> None:
        """Shed retained state: samples already routed, windows to disk."""
        self._report.samples_drained += self._engine.drain_retained()
        self._ship_windows()
        self._since_rotation = 0
        self._report.rotations += 1

    def _ship_windows(self) -> None:
        if self._analytics is None:
            return
        drain = getattr(self._analytics, "drain_windows", None)
        if drain is None:
            return
        windows = drain()
        if self._window_sink is not None:
            for window in windows:
                self._window_sink.add(window)
        self._report.windows_shipped += len(windows)

    # -- checkpointing -----------------------------------------------------

    def _checkpoint(self, *, finalized: bool) -> None:
        """Snapshot the run; :func:`resume_run` reads this layout back."""
        if self._checkpoint_path is None:
            return
        started = self._clock()
        self._engine.flush_routers()
        if self._window_sink is not None:
            self._window_sink.flush()
        for hook in self._hooks:
            hook.flush()
        payload = {
            "monitors": {
                run.name: run.monitor for run in self._engine.runs
            },
            "analytics": self._analytics,
        }
        if self._hooks:
            payload["hooks"] = {
                hook.name: hook.checkpoint_payload() for hook in self._hooks
            }
        meta = {
            "finalized": finalized,
            "source": self._source.resume_state(),
            "sinks": [sink.state() for sink in self._sinks],
            "runner": {
                "records": self._engine.records,
                "end_ns": self._engine.end_ns,
                "since_rotation": self._since_rotation,
                "samples_routed": {
                    run.name: run.samples_routed for run in self._engine.runs
                },
            },
        }
        header = write_checkpoint(self._checkpoint_path, payload, meta)
        self._last_checkpoint_bytes = header["payload_len"]
        self._last_checkpoint_seconds = self._clock() - started
        self._last_checkpoint_wall = self._clock()
        self._report.checkpoints += 1

    # -- endgame -----------------------------------------------------------

    def _drain_without_finalize(self) -> None:
        """The signal path: flush everything, finalize nothing.

        Open tracker/analytics state is preserved for the checkpoint so
        a resumed process continues exactly where this one stopped.
        """
        self._rotate()
        self._engine.flush_routers()
        self._checkpoint(finalized=False)
        for hook in self._hooks:
            hook.on_stop(stopped=True)
        for run in self._engine.runs:
            run.router.close()
        if self._window_sink is not None:
            self._window_sink.close()
        if self._telemetry is not None:
            self._telemetry.close()

    def _finalize(self) -> None:
        """The exhausted path: end-of-trace semantics, like a batch run."""
        self._engine.finish()  # finalizes monitors, closes routers+telemetry
        self._ship_windows()
        self._checkpoint(finalized=True)
        for hook in self._hooks:
            hook.on_stop(stopped=False)
        self._report.finalized = True
        if self._window_sink is not None:
            self._window_sink.close()

    # -- telemetry ---------------------------------------------------------

    def _collect_telemetry(self, registry: Any) -> None:
        records_total = registry.counter(
            "dart_stream_records_total",
            "Records ingested by the streaming runner",
        )
        records_total.set_cumulative((), self._engine.records)
        registry.gauge(
            "dart_stream_live_pps",
            "Ingest throughput over the most recent chunk",
        ).set((), self._live_pps)
        registry.counter(
            "dart_stream_checkpoints_total",
            "Checkpoints written this run",
        ).set_cumulative((), self._report.checkpoints)
        registry.counter(
            "dart_stream_rotations_total",
            "Rotation passes (retained-state drains) this run",
        ).set_cumulative((), self._report.rotations)
        registry.counter(
            "dart_stream_windows_shipped_total",
            "Closed analytics windows shipped to the window sink",
        ).set_cumulative((), self._report.windows_shipped)
        age = registry.gauge(
            "dart_stream_checkpoint_age_seconds",
            "Seconds since the last checkpoint landed",
        )
        if self._report.checkpoints and self._last_checkpoint_wall is not None:
            age.set((), max(0.0, self._clock() - self._last_checkpoint_wall))
        registry.gauge(
            "dart_stream_checkpoint_seconds",
            "Wall time of the most recent checkpoint write",
        ).set((), self._last_checkpoint_seconds)
        registry.gauge(
            "dart_stream_checkpoint_bytes",
            "Payload bytes of the most recent checkpoint",
        ).set((), self._last_checkpoint_bytes)
        registry.gauge(
            "dart_stream_source_lag_bytes",
            "Capture bytes on disk not yet read by the source",
        ).set((), self._source.lag_bytes())


@dataclass(slots=True)
class ResumedRun:
    """What :func:`resume_run` restores: the monitor and analytics, each
    hook's ``checkpoint_payload()`` by ``StreamHook.name``, every output
    file truncated to its checkpointed offset and reopened for append,
    the ``capture_format=``/``resume_offset=`` keywords that make any
    :class:`PacketSource` continue where the run stopped, and the header
    for :meth:`StreamRunner.restore`."""

    monitor: Any
    analytics: Any
    hook_states: Dict[str, Any]
    sinks: List[ResumableSink]
    source_kwargs: Dict[str, Any]
    header: Dict[str, Any]


def resume_run(path: str, monitor_name: str) -> ResumedRun:
    """Unpack what :meth:`StreamRunner._checkpoint` wrote at ``path`` —
    the only reader of that layout.

    Raises :class:`CheckpointError` when the file fails validation, the
    run behind it already finalized, or it does not hold
    ``monitor_name`` — all before any output file is touched.
    """
    checkpoint = read_checkpoint(path)
    if checkpoint.finalized:
        raise CheckpointError(f"the run behind {path} already finalized")
    monitors = checkpoint.payload["monitors"]
    if monitor_name not in monitors:
        known = ", ".join(sorted(monitors))
        raise CheckpointError(
            f"checkpoint holds {known!r}, not {monitor_name!r} — resume "
            "with the monitor the run started with"
        )
    source = checkpoint.header["source"]
    return ResumedRun(
        monitor=monitors[monitor_name],
        analytics=checkpoint.payload.get("analytics"),
        hook_states=checkpoint.payload.get("hooks", {}),
        sinks=[ResumableSink.resume(state)
               for state in checkpoint.header["sinks"]],
        source_kwargs={"capture_format": source.get("format"),
                       "resume_offset": source["offset"]},
        header=checkpoint.header,
    )

"""Per-shard workers: one monitor instance each, one feed, two places.

A worker owns exactly one RTT monitor (historically always a
:class:`~repro.core.pipeline.Dart`; now any
:class:`repro.engine.RttMonitor` — tcptrace, the strawman, Dapper —
built from a zero-argument factory) and consumes framed *byte* batches
(:mod:`repro.net.framing`) for its shard through ``submit_bytes``.  The
coordinator never materialises packet objects: an option-free IPv4/TCP
frame arrives as the packed fields of its header, read once at
dispatch, and every other frame arrives whole and is parsed here.
Every batch reaches the monitor through :func:`consume_step`, and every
failure is described by :func:`failure_report`, wherever the worker
runs.  Two implementations share the ``submit_bytes()`` / ``finish()``
/ ``abort()`` / ``telemetry_probe()`` surface:

* :class:`InlineWorker` — runs the monitor synchronously in the caller
  (the ``parallel="serial"`` mode; useful for debugging and for
  coverage tracing).
* :class:`ProcessWorker` — a ``multiprocessing`` subprocess fed over
  the shared-memory ring (:mod:`repro.cluster.transport`); the mode
  that buys multi-core speedup.

Fault handling: every blocking operation on a worker is guarded by a
liveness check or a deadline, so a crashed or hung worker surfaces as a
:class:`ShardFailure` naming the shard — never as a deadlock.  A worker
that fails mid-trace ships the partial stats it accumulated back with
the error whenever it can.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.analytics import WindowMinimum
from ..core.samples import RttSample
from ..net.framing import decode_batch as decode_frames
from .transport import ShmRingTransport

#: Builds one shard's monitor.  Any object satisfying the
#: :class:`repro.engine.RttMonitor` protocol works; the callable must be
#: usable in the worker context (any callable under fork; picklable
#: under spawn).  Typed loosely so this module never imports the engine
#: (or Dart) and stays dependency-light in subprocesses.
MonitorFactory = Callable[[], Any]

#: Seconds a coordinator waits for a worker to finish before declaring
#: it hung.
DEFAULT_JOIN_TIMEOUT = 30.0

#: Poll interval for liveness-guarded queue operations.
_POLL_S = 0.1


class ClusterPartialResultWarning(UserWarning):
    """Partial (failed-shard) results entered a merge.

    Raised as a *warning*, not an error, because the caller explicitly
    opted into salvaging ``ShardFailure.partial`` — but the merged view
    silently missing the failed shard's in-flight analytics windows is
    exactly the kind of quiet data loss an operator must see.
    """


class ShardFailure(RuntimeError):
    """A shard's worker crashed, died, or missed its join deadline.

    Attributes:
        shard_id: the failed shard.
        reason: what happened (exception repr + traceback, exit code,
            or a timeout description).
        partial: whatever per-shard results were recovered —
            ``{shard_id: ShardResult}`` for shards that completed plus,
            when the failed worker managed to report them, its own
            partial counters.
    """

    def __init__(
        self,
        shard_id: int,
        reason: str,
        *,
        partial: Optional[Dict[int, "ShardResult"]] = None,
    ) -> None:
        super().__init__(f"shard {shard_id} failed: {reason}")
        self.shard_id = shard_id
        self.reason = reason
        self.partial: Dict[int, ShardResult] = dict(partial or {})

    @classmethod
    def from_report(
        cls, shard_id: int, reason: str, partial: Optional["ShardResult"]
    ) -> "ShardFailure":
        """The failure a :func:`failure_report` describes."""
        return cls(shard_id, reason,
                   partial={shard_id: partial} if partial else None)


@dataclass
class ShardResult:
    """Everything a shard hands back when it finishes (or dies trying).

    All fields are plain data (no live table state, no closures), so a
    result pickles cleanly across the process boundary regardless of
    what analytics object or leg filter the monitor was built with.

    ``stats`` is whatever counters dataclass the shard's monitor type
    exposes (:class:`~repro.core.pipeline.DartStats` for Dart shards,
    ``TcpTraceStats`` for tcptrace shards, ...); all of them merge by
    field-wise addition.
    """

    shard_id: int
    packets: int
    stats: Any
    samples: List[RttSample] = field(default_factory=list)
    window_history: List[WindowMinimum] = field(default_factory=list)
    rt_collapses: int = 0
    #: True when the worker failed before end-of-trace and these are
    #: the counters it had accumulated at the point of failure.
    partial: bool = False
    #: Open analytics windows (windows that had accumulated samples but
    #: never closed) dropped by a partial harvest — a crashed worker's
    #: in-flight window state cannot be flushed safely, so the loss is
    #: counted here and surfaced by the merge instead of vanishing.
    windows_lost: int = 0
    #: The worker's :class:`repro.obs.MetricsRegistry`; it pickles as is
    #: across the process boundary and merges by summation.
    telemetry: Optional[Any] = None
    #: Distribution analytics snapshot
    #: (:class:`repro.core.hist.DistributionAnalytics` without its inner
    #: module) when the shard's monitor carried one; merges by addition
    #: — flow-consistent sharding makes the merged histogram equal a
    #: serial run's bin for bin.
    distribution: Optional[Any] = None


def harvest(
    shard_id: int,
    monitor: Any,
    *,
    partial: bool = False,
    end_ns: Optional[int] = None,
) -> ShardResult:
    """Extract a shard's transportable results from its monitor.

    Finalizes the monitor (flushing open analytics windows) unless the
    harvest is partial — a crashed worker's analytics may be
    mid-update, so its open windows are left unflushed.  ``end_ns`` is
    the global end-of-trace timestamp: flushing there (not at the
    shard's own last packet) keeps flush-time windows bit-identical to
    a serial run's.

    Dart-specific surfaces (``analytics.history``, the Range Tracker's
    collapse counter) are read through ``getattr`` guards so baseline
    monitors — which have neither — harvest with empty history and zero
    collapses.
    """
    if not partial:
        monitor.finalize(end_ns)
    range_tracker = getattr(monitor, "range_tracker", None)
    windows_lost = _open_window_count(monitor) if partial else 0
    return ShardResult(
        shard_id=shard_id,
        packets=monitor.stats.packets_processed,
        stats=monitor.stats,
        samples=list(monitor.samples),
        window_history=list(
            getattr(getattr(monitor, "analytics", None), "history", ())
        ),
        rt_collapses=(
            range_tracker.stats.total_collapses
            if range_tracker is not None
            else 0
        ),
        partial=partial,
        windows_lost=windows_lost,
        telemetry=_shard_telemetry(shard_id, monitor),
        distribution=_shard_distribution(monitor),
    )


def _shard_distribution(monitor: Any) -> Optional[Any]:
    """The monitor's distribution analytics snapshot, if it keeps one.

    Duck-typed like the other harvest surfaces: any analytics exposing
    ``distribution_snapshot()`` ships its histogram/sketch state home
    inside the ShardResult; everything else harvests ``None``.
    """
    analytics = getattr(monitor, "analytics", None)
    snapshot = getattr(analytics, "distribution_snapshot", None)
    if callable(snapshot):
        return snapshot()
    return None


def _open_window_count(monitor: Any) -> int:
    """How many in-flight analytics windows a partial harvest drops.

    Only windows that had already accumulated samples count — an empty
    time window carries no information (the same rule
    ``MinFilterAnalytics._close`` applies on flush).
    """
    state = getattr(getattr(monitor, "analytics", None), "_state", None)
    if not state:
        return 0
    return sum(
        1 for window in state.values()
        if getattr(window, "min_rtt_ns", None) is not None
    )


def _shard_telemetry(shard_id: int, monitor: Any):
    """Collect the shard's metric state into a registry for the trip home.

    Runs once per shard at harvest (never per packet), in the worker
    context, so the coordinator can aggregate worker-side counters by
    merging registries instead of sharing any live state.
    """
    from ..obs.collect import collect_monitor
    from ..obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    collect_monitor(
        registry, monitor, type(monitor).__name__.lower(), str(shard_id)
    )
    return registry


def consume_step(monitor: Any, fastpath: bool) -> Callable[[bytes], Any]:
    """How a shard's monitor takes one framed byte batch.

    A monitor with ``process_framed`` (Dart) turns each packed record
    into a kernel row with one ``struct`` read — no
    :class:`~repro.net.packet.PacketRecord`, no numpy, so a worker never
    imports it.  Every other monitor, and every monitor under
    ``fastpath=False`` (the cluster equivalence suite's reference leg),
    gets the decoded records through ``process_batch``: same verdicts,
    stats and samples.  Whole wire frames that decode to non-TCP are
    skipped either way, matching the serial reader on mixed captures.
    """
    framed = getattr(monitor, "process_framed", None) if fastpath else None
    if framed is not None:
        return framed
    process_batch = monitor.process_batch
    return lambda payload: process_batch(decode_frames(payload))


def failure_report(
    exc: BaseException, shard_id: int, monitor: Optional[Any]
) -> Tuple[str, Optional[ShardResult]]:
    """``(reason, partial harvest)`` for a shard that raised ``exc``.

    Call it while handling ``exc``: the reason carries the traceback.
    The harvest is ``None`` when there is no monitor yet or it cannot
    be read.
    """
    partial = None
    if monitor is not None:
        try:
            partial = harvest(shard_id, monitor, partial=True)
        except Exception:
            pass
    return f"{exc!r}\n{traceback.format_exc()}", partial


class InlineWorker:
    """Runs the shard's monitor synchronously in the calling thread.

    The same consume step and failure report as a process worker: a
    monitor that raises surfaces as a :class:`ShardFailure` carrying
    its partial harvest, never as its own exception.
    """

    def __init__(
        self,
        shard_id: int,
        monitor_factory: MonitorFactory,
        *,
        fastpath: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self._monitor = monitor_factory()
        self._consume = consume_step(self._monitor, fastpath)

    def _failure(self, exc: Exception) -> ShardFailure:
        return ShardFailure.from_report(
            self.shard_id, *failure_report(exc, self.shard_id, self._monitor)
        )

    def submit_bytes(self, payload: bytes) -> None:
        """Consume one framed byte batch, here and now."""
        try:
            self._consume(payload)
        except Exception as exc:
            raise self._failure(exc) from exc

    def finish(
        self,
        timeout: float = DEFAULT_JOIN_TIMEOUT,
        end_ns: Optional[int] = None,
    ) -> ShardResult:
        try:
            return harvest(self.shard_id, self._monitor, end_ns=end_ns)
        except Exception as exc:
            raise self._failure(exc) from exc

    def telemetry_probe(self) -> Tuple[int, bool]:
        """(queue depth, liveness) — inline work has neither queue nor
        separate liveness, so it reports an empty queue and alive."""
        return 0, True

    def abort(self) -> None:
        pass


# -- Process mode ----------------------------------------------------------

def _worker_main(
    shard_id: int,
    monitor_factory: MonitorFactory,
    transport,
    result_queue,
    fastpath: bool = True,
) -> None:
    """Subprocess entry point: consume byte batches until the sentinel.

    Batches arrive over the shard's transport and go through
    :func:`consume_step` — in the worker, in parallel across shards,
    while the coordinator only ever touches bytes.  A failure posts
    :func:`failure_report` on the result queue and exits 1.
    """
    monitor: Optional[Any] = None
    try:
        monitor = monitor_factory()
        consume = consume_step(monitor, fastpath)
        end_ns: Optional[int] = None
        while True:
            kind, payload = transport.recv()
            if kind == "stop":
                return
            if kind == "finish":
                end_ns = payload
                break
            consume(payload)
        result_queue.put(("ok", harvest(shard_id, monitor, end_ns=end_ns)))
    except BaseException as exc:
        try:
            result_queue.put(
                ("error", *failure_report(exc, shard_id, monitor))
            )
        except Exception:
            pass
        raise SystemExit(1)
    finally:
        transport.close_consumer()


def _default_context():
    """Prefer fork (closures in monitor factories work); fall back cleanly."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


class ProcessWorker:
    """A shard worker in a subprocess — the multi-core mode.

    Batches cross the process boundary as contiguous framed bytes over
    the shard's shared-memory ring (:mod:`repro.cluster.transport`).
    The coordinator ships bytes — packed header fields, or the whole
    frame when the header alone does not settle the decode — so
    dispatch cost no longer grows with per-packet object overhead or,
    for plain traffic, with payload size.  A host that cannot allocate
    POSIX shared memory raises the ``OSError`` here, at construction.

    With the (Linux-default) fork start method the monitor factory may
    be any callable, closures included; under spawn it must be
    picklable.  Results travel back as plain-data :class:`ShardResult`
    objects on a separate queue, so unpicklable analytics internals
    (lambda key functions, open sinks) never cross the process
    boundary.
    """

    def __init__(
        self,
        shard_id: int,
        monitor_factory: MonitorFactory,
        *,
        fastpath: bool = True,
    ) -> None:
        self.shard_id = shard_id
        ctx = _default_context()
        self._transport = ShmRingTransport(ctx)
        try:
            self._results = ctx.Queue()
            self._proc = ctx.Process(
                target=_worker_main,
                args=(shard_id, monitor_factory, self._transport,
                      self._results, fastpath),
                name=f"dart-shard-{shard_id}",
                daemon=True,
            )
            self._proc.start()
        except BaseException:
            # A worker that never finished construction is in no
            # coordinator's worker list: only this frame can free its ring.
            self._transport.destroy()
            raise

    def _died(self) -> ShardFailure:
        # The worker reports errors (with partial stats) on the result
        # queue before exiting; a hard crash (segfault, os._exit) leaves
        # only the exit code.
        try:
            report = self._results.get(timeout=0.5)
        except queue.Empty:
            report = None
        self._transport.destroy()
        if report is not None and report[0] == "error":
            return ShardFailure.from_report(self.shard_id, *report[1:])
        return ShardFailure(
            self.shard_id,
            f"worker process died (exitcode {self._proc.exitcode})",
        )

    def _stall_check(self) -> None:
        """Raised into the transport's space-wait loop: a dead worker
        must surface as a :class:`ShardFailure`, never a stuck send."""
        if not self._proc.is_alive():
            raise self._died()

    def submit_bytes(self, payload: bytes) -> None:
        """Ship one framed byte batch to the worker."""
        if not self._proc.is_alive():
            raise self._died()
        self._transport.send_batch(payload, self._stall_check)

    def telemetry_probe(self) -> Tuple[int, bool]:
        """(unconsumed ring *bytes*, subprocess liveness); depth is -1
        once the ring is gone, zero means "caught up"."""
        return self._transport.depth(), self._proc.is_alive()

    def finish(
        self,
        timeout: float = DEFAULT_JOIN_TIMEOUT,
        end_ns: Optional[int] = None,
    ) -> ShardResult:
        self._transport.send_finish(end_ns, self._stall_check)
        deadline = time.monotonic() + timeout
        while True:
            try:
                report = self._results.get(timeout=2 * _POLL_S)
                break
            except queue.Empty:
                if not self._proc.is_alive():
                    # One last chance: the result may have been queued
                    # in the instant before the process exited.
                    try:
                        report = self._results.get(timeout=0.5)
                        break
                    except queue.Empty:
                        self._transport.destroy()
                        raise ShardFailure(
                            self.shard_id,
                            "worker process died "
                            f"(exitcode {self._proc.exitcode})",
                        )
                if time.monotonic() >= deadline:
                    self.abort()
                    raise ShardFailure(
                        self.shard_id,
                        f"worker missed the {timeout:.1f}s join timeout",
                    )
        if report[0] == "error":
            self._proc.join(timeout=1.0)
            self._transport.destroy()
            raise ShardFailure.from_report(self.shard_id, *report[1:])
        self._proc.join(timeout=max(1.0, deadline - time.monotonic()))
        if self._proc.is_alive():
            self.abort()
        else:
            self._transport.destroy()
        return report[1]

    def abort(self) -> None:
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=1.0)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join(timeout=1.0)
        self._transport.destroy()


WORKER_MODES = {
    "serial": InlineWorker,
    "process": ProcessWorker,
}

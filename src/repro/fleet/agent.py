"""The dart-agent side of the fleet: export deltas, survive churn.

Pieces:

* :class:`CollectorClient` — a reconnecting frame pipe.  Connection
  failures never propagate to the monitoring loop: ``send`` returns
  ``False`` and the client retries with exponential backoff on later
  calls.  A vantage point keeps measuring when the collector is down.
* :class:`FlowCountTap` — a sample-router sink that counts samples per
  *canonical* flow key.  Cumulative counts are what the collector's
  :class:`~repro.fleet.registry.FlowRegistry` needs for exactly-once
  multi-tap dedup, and the tap pickles into the agent's checkpoint so
  counts survive restart.
* :class:`FleetExporter` — the :class:`~repro.stream.StreamHook` that
  rides the streaming loop: buffers closed analytics windows, pushes a
  cumulative delta every ``push_interval_s``, heartbeats in between,
  and sends a ``final`` delta plus ``bye`` at end of run.

Exactness under SIGKILL + resume rests on three properties:

* Deltas are *cumulative*, so the collector replaces rather than adds —
  a resumed agent can never double-count stats or flow totals.
* Pending (unsent) windows ride the agent checkpoint via
  :meth:`FleetExporter.checkpoint_payload`, and sent windows are
  content-deduped at the collector — so windows are exactly-once no
  matter where the kill lands relative to a push or a checkpoint.
* The ``(epoch, seq)`` stamp (epoch = process start, monotonic seq)
  lets the collector order frames across restarts without clocks being
  synchronized between agents.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.analytics import WindowMinimum
from ..core.flow import FlowKey
from ..core.hist import DistributionAnalytics
from ..stream.runner import StreamHook
from .wire import (
    encode_frame,
    key_to_wire,
    stats_to_wire,
    window_to_wire,
)

__all__ = [
    "CollectorClient",
    "FleetExporter",
    "FlowCountTap",
    "WindowTee",
    "parse_endpoint",
]

DEFAULT_PUSH_INTERVAL_S = 1.0
DEFAULT_HEARTBEAT_INTERVAL_S = 2.0
BACKOFF_INITIAL_S = 0.1
BACKOFF_MAX_S = 5.0


def parse_endpoint(text: str) -> Tuple[Optional[Tuple[str, int]],
                                       Optional[str]]:
    """Parse ``HOST:PORT`` or ``unix:PATH`` into (tcp, unix_path)."""
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError("unix: endpoint needs a socket path")
        return None, path
    host, sep, port_text = text.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        raise ValueError(
            f"endpoint {text!r} is neither HOST:PORT nor unix:PATH"
        )
    return (host, int(port_text)), None


class CollectorClient:
    """A frame pipe to the collector that treats failure as weather."""

    def __init__(
        self,
        endpoint: str,
        *,
        connect_timeout_s: float = 2.0,
        backoff_initial_s: float = BACKOFF_INITIAL_S,
        backoff_max_s: float = BACKOFF_MAX_S,
        clock=time.monotonic,
    ) -> None:
        self.tcp, self.unix_path = parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.connect_timeout_s = connect_timeout_s
        self.backoff_initial_s = backoff_initial_s
        self.backoff_max_s = backoff_max_s
        self._clock = clock
        self._sock: Optional[socket.socket] = None
        self._backoff = backoff_initial_s
        self._retry_at = 0.0
        self.sends = 0
        self.send_failures = 0
        self.reconnects = 0

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _connect(self) -> bool:
        """One connection attempt, rate-limited by the backoff clock."""
        now = self._clock()
        if now < self._retry_at:
            return False
        try:
            if self.unix_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.connect_timeout_s)
                sock.connect(self.unix_path)
            else:
                sock = socket.create_connection(
                    self.tcp, timeout=self.connect_timeout_s
                )
        except OSError:
            self._retry_at = now + self._backoff
            self._backoff = min(self._backoff * 2, self.backoff_max_s)
            return False
        sock.settimeout(self.connect_timeout_s)
        self._sock = sock
        self._backoff = self.backoff_initial_s
        self._retry_at = 0.0
        self.reconnects += 1
        return True

    def send(self, frame: bytes) -> bool:
        """Ship one encoded frame; ``False`` means "not this time".

        Never raises for network reasons and never blocks beyond the
        connect/send timeout — the monitoring loop must keep pace with
        the capture regardless of collector health.
        """
        if self._sock is None and not self._connect():
            return False
        assert self._sock is not None
        try:
            self._sock.sendall(frame)
        except OSError:
            self.send_failures += 1
            self._drop()
            return False
        self.sends += 1
        return True

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._retry_at = self._clock() + self._backoff
        self._backoff = min(self._backoff * 2, self.backoff_max_s)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class FlowCountTap:
    """Counts routed samples per canonical flow (a router sink).

    Keyed canonically so both directions of a connection collapse to
    one entry — the identity the fleet's multi-tap dedup registry keys
    on.  Plain picklable state: the tap rides the agent checkpoint, so
    cumulative counts survive restart and the re-stated totals a
    resumed agent pushes are correct from its first delta.
    """

    def __init__(self) -> None:
        self.counts: Dict[FlowKey, int] = {}
        self.samples = 0

    def add(self, sample: Any) -> None:
        key = sample.flow.canonical()
        self.counts[key] = self.counts.get(key, 0) + 1
        self.samples += 1

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def wire_counts(self) -> List[List[Any]]:
        """JSON-safe ``[[key_wire, count], ...]`` (cumulative)."""
        return [[key_to_wire(key), count]
                for key, count in self.counts.items()]


class WindowTee:
    """Fan one closed-window stream out to sinks and add-only taps.

    The agent ships windows to the collector *and* (optionally) to a
    local ``--windows`` JSONL sink; the tee keeps full lifecycle calls
    (``flush``/``close``) away from the taps, whose lifecycles belong
    to their owners (the exporter is closed by its ``on_stop`` hook).
    """

    def __init__(self, sinks: List[Any], taps: List[Any]) -> None:
        self._sinks = list(sinks)
        self._taps = list(taps)

    def add(self, window: WindowMinimum) -> None:
        for sink in self._sinks:
            sink.add(window)
        for tap in self._taps:
            tap.add(window)

    def flush(self) -> None:
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class FleetExporter(StreamHook):
    """StreamHook that exports this vantage point's view to the fleet.

    Also exposes ``add(window)`` so a :class:`WindowTee` can feed it
    closed analytics windows as they drain.
    """

    name = "fleet"

    def __init__(
        self,
        client: CollectorClient,
        agent_id: str,
        *,
        engine: Any = None,
        monitor_name: str = "dart",
        flow_tap: Optional[FlowCountTap] = None,
        analytics: Any = None,
        telemetry: Any = None,
        push_interval_s: float = DEFAULT_PUSH_INTERVAL_S,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        epoch: Optional[int] = None,
        clock=time.monotonic,
    ) -> None:
        if push_interval_s <= 0:
            raise ValueError("push_interval_s must be positive")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        self.client = client
        self.agent_id = agent_id
        self.engine = engine
        self.monitor_name = monitor_name
        self.flow_tap = flow_tap
        self.analytics = analytics
        self.telemetry = telemetry
        self.push_interval_s = push_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Process-start stamp: a resumed agent gets a larger epoch than
        #: any frame its previous incarnation sent, so the collector's
        #: staleness guard orders restarts without synchronized clocks.
        self.epoch = time.time_ns() if epoch is None else epoch
        self.seq = 0
        self._clock = clock
        now = clock()
        self._next_push = now + push_interval_s
        self._next_heartbeat = now + heartbeat_interval_s
        self._pending_windows: List[WindowMinimum] = []
        self._hello_sent = False
        self.deltas_sent = 0
        self.deltas_deferred = 0
        self.heartbeats_sent = 0

    # -- window-tap protocol ---------------------------------------------

    def add(self, window: WindowMinimum) -> None:
        """Buffer one closed window for the next delta push."""
        self._pending_windows.append(window)

    # -- StreamHook protocol ---------------------------------------------

    def on_chunk(self, runner: Any) -> None:
        now = self._clock()
        if not self._hello_sent:
            if self._send("hello"):
                self._hello_sent = True
        if now >= self._next_push:
            self.push_delta()
            self._next_push = self._clock() + self.push_interval_s
        elif now >= self._next_heartbeat:
            if self._send("heartbeat"):
                self.heartbeats_sent += 1
            self._next_heartbeat = self._clock() + self.heartbeat_interval_s

    def flush(self) -> None:
        """Checkpoint-time push.  Deliberately failure-tolerant: a down
        collector leaves windows in the pending buffer (which rides the
        checkpoint payload) and must never fail the checkpoint."""
        self.push_delta()

    def checkpoint_payload(self) -> Dict[str, Any]:
        return {
            "pending_windows": list(self._pending_windows),
            "flow_counts": (
                dict(self.flow_tap.counts)
                if self.flow_tap is not None else {}
            ),
            "flow_samples": (
                self.flow_tap.samples if self.flow_tap is not None else 0
            ),
        }

    def restore(self, state: Optional[Dict[str, Any]]) -> None:
        if not state:
            return
        self._pending_windows = list(state.get("pending_windows", ()))
        if self.flow_tap is not None:
            self.flow_tap.counts = dict(state.get("flow_counts", {}))
            self.flow_tap.samples = int(state.get("flow_samples", 0))

    def on_stop(self, *, stopped: bool) -> None:
        """Final delta (``final`` only when the source truly finished),
        then a clean goodbye.  A SIGKILLed agent never gets here — that
        is what the collector's liveness timeout and loss accounting
        are for."""
        self.push_delta(final=not stopped)
        self._send("bye")
        self.client.close()

    # -- delta assembly ---------------------------------------------------

    def _send(self, kind: str,
              payload: Optional[Dict[str, Any]] = None) -> bool:
        self.seq += 1
        frame = encode_frame(
            kind, agent=self.agent_id, epoch=self.epoch, seq=self.seq,
            payload=payload,
        )
        return self.client.send(frame)

    def build_payload(self, *, final: bool = False) -> Dict[str, Any]:
        """The cumulative delta payload (exposed for tests)."""
        stats = None
        records = 0
        if self.engine is not None:
            records = self.engine.records
            for run in self.engine.runs:
                if run.name == self.monitor_name:
                    stats = stats_to_wire(run.monitor.stats)
                    break
        telemetry_wire = None
        if self.telemetry is not None:
            telemetry_wire = self.telemetry.registry.to_wire(
                self.telemetry.emissions
            )
        windows_closed = 0
        distribution_wire = None
        if self.analytics is not None:
            # The analytics may be a bare MinFilterAnalytics, a bare
            # distribution stage, or a distribution wrapping a min
            # filter — read both surfaces through guards.
            windows_closed = getattr(self.analytics, "windows_closed", 0)
            if isinstance(self.analytics, DistributionAnalytics):
                distribution_wire = self.analytics.state()
        return {
            "monitor": self.monitor_name,
            "records": records,
            "stats": stats,
            "flows": (
                self.flow_tap.wire_counts()
                if self.flow_tap is not None else []
            ),
            "windows": [window_to_wire(w) for w in self._pending_windows],
            "windows_closed": windows_closed,
            "telemetry": telemetry_wire,
            "distribution": distribution_wire,
            "final": final,
        }

    def push_delta(self, *, final: bool = False) -> bool:
        """Assemble and ship one cumulative delta now."""
        payload = self.build_payload(final=final)
        if self._send("delta", payload):
            self.deltas_sent += 1
            # The collector holds these (content-deduped on its side);
            # anything still pending at the next checkpoint rides it.
            self._pending_windows.clear()
            self._next_heartbeat = self._clock() + self.heartbeat_interval_s
            return True
        self.deltas_deferred += 1
        return False

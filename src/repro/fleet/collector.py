"""The dart-collector: merge many vantage points into one fleet view.

Three layers, separable for testing:

* :class:`FleetCollector` — the socket-free merge core.  Feed it decoded
  :class:`~repro.fleet.wire.Frame` objects (or call the ``handle_*``
  methods directly) and read back the merged view.  All state behind one
  lock; every public method is safe from any thread.
* :class:`FleetServer` — the socket front end: an accept loop plus one
  reader thread per agent connection, speaking the fleet wire protocol
  over TCP or a unix socket.
* :class:`FleetHttpServer` — stdlib HTTP exposition of the merged view:
  ``/metrics`` (Prometheus text), ``/agents`` and ``/summary`` (JSON),
  ``/healthz``.

Churn semantics (the part that makes the merge *exact*):

* Deltas are **cumulative**: each one re-states the sending agent's
  full monitor stats, telemetry registry, and per-flow sample counts.
  The collector keeps the latest per agent and the merged view is a sum
  over agents — so a lost delta costs staleness, never correctness, and
  a resumed agent (same id, fresh ``epoch``) *replaces* its former self
  instead of double-counting.
* Ordering is guarded by the ``(epoch, seq)`` stamp: an agent's epoch is
  its process-start time, seq increments per frame.  Frames whose stamp
  does not advance are dropped and counted in
  ``fleet_stale_deltas_dropped_total`` (reordered duplicates on
  reconnect, or a misconfigured second agent with a stolen id).
* A delta applies whole or not at all: it is decoded before the stamp
  guard runs, and one that is malformed, or whose stats type or
  distribution configuration differs from the first the collector held
  for that monitor, is counted and dropped without touching any state.
* Closed analytics windows are **incremental** with content-keyed
  dedup, so the resume path may re-send windows freely and each is
  merged exactly once.  ``fleet_windows_lost_total`` is the difference
  between an agent's reported cumulative ``windows_closed`` and the
  deduped windows actually received from it — zero after a clean
  resume, loudly nonzero when churn really dropped data.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.analytics import WindowMinimum
from ..detection.change import DetectorConfig, run_over_windows
from ..obs.exporters import to_prometheus
from ..obs.metrics import MetricsRegistry
from .wire import Frame, FrameCorrupt, WireError, decode_delta, read_frame
from .registry import FlowRegistry

__all__ = ["AgentState", "FleetCollector", "FleetServer", "FleetHttpServer"]

#: An agent with no frame for this many seconds is marked down (its
#: state is retained — liveness is a gauge, not an eviction policy).
DEFAULT_AGENT_TIMEOUT_S = 10.0


@dataclass
class AgentState:
    """Everything the collector knows about one agent."""

    agent_id: str
    epoch: int = 0
    seq: int = -1
    connected: bool = False
    finalized: bool = False
    last_frame_monotonic: float = 0.0
    deltas: int = 0
    heartbeats: int = 0
    #: Latest cumulative stats per monitor name (wire-decoded objects).
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Latest cumulative packet-record count per monitor name.
    records: Dict[str, int] = field(default_factory=dict)
    #: Latest cumulative telemetry registry (None until one arrives).
    telemetry: Optional[MetricsRegistry] = None
    #: Latest cumulative distribution stage per monitor name (its
    #: registers, from ``DistributionAnalytics.from_state``).
    #: Replacement under the (epoch, seq) guard, like ``stats`` —
    #: cumulative deltas make a resumed agent replace rather than
    #: double-count itself.
    distribution: Dict[str, Any] = field(default_factory=dict)
    #: Agent-reported cumulative closed-window count.
    windows_closed: int = 0
    #: Deduped windows actually merged from this agent.
    windows_received: int = 0

    @property
    def windows_lost(self) -> int:
        """Windows the agent closed but the fleet never merged."""
        return max(0, self.windows_closed - self.windows_received)


#: Exported collector counters: (metric, help, summary key).
_COUNTERS = (
    ("fleet_frames_total", "frames accepted", "frames_total"),
    ("fleet_stale_deltas_dropped_total",
     "frames dropped by the (epoch, seq) staleness guard",
     "stale_deltas_dropped"),
    ("fleet_corrupt_frames_total", "frames failing validation",
     "corrupt_frames"),
    ("fleet_mismatched_deltas_total",
     "deltas refused: stats type or distribution configuration differs "
     "from the first held for the monitor", "mismatched_deltas"),
)


class FleetCollector:
    """The socket-free merge core (thread-safe)."""

    def __init__(
        self,
        *,
        agent_timeout_s: float = DEFAULT_AGENT_TIMEOUT_S,
        detector_config: Optional[DetectorConfig] = None,
        clock=time.monotonic,
    ) -> None:
        self.agent_timeout_s = agent_timeout_s
        self.detector_config = detector_config
        self._clock = clock
        self._lock = threading.Lock()
        self._agents: Dict[str, AgentState] = {}
        self._registry = FlowRegistry()
        self._windows: List[WindowMinimum] = []
        #: (agent, window): a window's content identity, not just its
        #: (key, index), so a restart that recomputes a window
        #: differently shows as two windows instead of collapsing.
        self._window_keys: Set[Tuple[str, WindowMinimum]] = set()
        self._counts = {key: 0 for _, _, key in _COUNTERS}
        #: (monitor, "stats" | "distribution") -> the stats type or stage
        #: configuration first held for it; fixed until restart.
        self._shapes: Dict[Tuple[str, str], Any] = {}

    # -- frame dispatch ---------------------------------------------------

    def handle_frame(self, frame: Frame) -> None:
        """Dispatch one decoded frame to its kind handler."""
        kind = frame.kind
        if kind == "hello":
            self.handle_hello(frame)
        elif kind == "delta":
            self.handle_delta(frame)
        elif kind == "heartbeat":
            self.handle_heartbeat(frame)
        elif kind == "bye":
            self.handle_bye(frame)
        else:  # read_frame validated kinds already; belt and braces
            raise FrameCorrupt(f"unroutable frame kind {kind!r}")

    def _touch(self, frame: Frame) -> Optional[AgentState]:
        """Look up / create the agent and apply the (epoch, seq) guard.

        Returns ``None`` when the frame is stale (stamp did not advance)
        — the caller drops it.  Must be called with the lock held.
        """
        self._counts["frames_total"] += 1
        state = self._agents.get(frame.agent)
        if state is None:
            state = AgentState(agent_id=frame.agent)
            self._agents[frame.agent] = state
        if (frame.epoch, frame.seq) <= (state.epoch, state.seq):
            self._counts["stale_deltas_dropped"] += 1
            return None
        if frame.epoch > state.epoch:
            # A fresh process epoch: cumulative state will be replaced
            # as deltas arrive; seq restarts within the new epoch.
            state.epoch = frame.epoch
            state.seq = frame.seq
            state.finalized = False
        else:
            state.seq = frame.seq
        state.connected = True
        state.last_frame_monotonic = self._clock()
        return state

    def handle_hello(self, frame: Frame) -> None:
        with self._lock:
            self._touch(frame)

    def handle_heartbeat(self, frame: Frame) -> None:
        with self._lock:
            state = self._touch(frame)
            if state is not None:
                state.heartbeats += 1

    def handle_bye(self, frame: Frame) -> None:
        with self._lock:
            state = self._touch(frame)
            if state is not None:
                state.connected = False

    def handle_delta(self, frame: Frame) -> None:
        """Merge one cumulative delta (the workhorse), or refuse it whole.

        The payload is decoded and checked before the (epoch, seq) guard
        runs, so a refused delta changes nothing, not even the agent's
        stamp: a malformed one counts in ``fleet_corrupt_frames_total``,
        one whose stage cannot merge with the monitor's in
        ``fleet_mismatched_deltas_total``.
        """
        try:
            delta = decode_delta(frame.payload)
        except FrameCorrupt:
            self.note_corrupt_frame()
            return
        with self._lock:
            shapes = self._shapes_of(delta)
            if shapes is None:
                self._counts["mismatched_deltas"] += 1
                return
            state = self._touch(frame)
            if state is None:
                return
            self._shapes.update(shapes)
            state.deltas += 1
            monitor = delta["monitor"]
            if "stats" in delta:
                state.stats[monitor] = delta["stats"]
            if "records" in delta:
                state.records[monitor] = delta["records"]
            if "distribution" in delta:
                state.distribution[monitor] = delta["distribution"]
            if "telemetry" in delta:
                state.telemetry = delta["telemetry"]
            if "windows_closed" in delta:
                state.windows_closed = delta["windows_closed"]
            for key, count in delta["flows"]:
                self._registry.observe(frame.agent, key, count)
            for window in delta["windows"]:
                if (frame.agent, window) in self._window_keys:
                    continue
                self._window_keys.add((frame.agent, window))
                self._windows.append(window)
                state.windows_received += 1
            if delta["final"]:
                state.finalized = True
                state.connected = False

    def _shapes_of(self, delta: Dict[str, Any]
                   ) -> Optional[Dict[Tuple[str, str], Any]]:
        """The delta's stats type and distribution configuration, or
        ``None`` when one differs from the first this collector held for
        the monitor — every merged read must be able to sum them.  Must
        be called with the lock held."""
        shapes: Dict[Tuple[str, str], Any] = {}
        if "stats" in delta:
            shapes[(delta["monitor"], "stats")] = type(delta["stats"])
        if "distribution" in delta:
            shapes[(delta["monitor"], "distribution")] = \
                delta["distribution"].config()
        if any(self._shapes.get(part, shape) != shape
               for part, shape in shapes.items()):
            return None
        return shapes

    def mark_disconnected(self, agent_id: str) -> None:
        """A reader thread lost its connection (no bye seen)."""
        with self._lock:
            state = self._agents.get(agent_id)
            if state is not None:
                state.connected = False

    def note_corrupt_frame(self) -> None:
        with self._lock:
            self._counts["corrupt_frames"] += 1

    # -- merged-view accessors -------------------------------------------

    def agents(self) -> List[AgentState]:
        with self._lock:
            return list(self._agents.values())

    def finalized_agents(self) -> int:
        with self._lock:
            return sum(1 for a in self._agents.values() if a.finalized)

    def agent_up(self, state: AgentState) -> bool:
        """Liveness: connected and heard from within the timeout."""
        if not state.connected:
            return False
        return (self._clock() - state.last_frame_monotonic) \
            <= self.agent_timeout_s

    def merged_stats(self) -> Dict[str, Any]:
        """Per-monitor stats summed across agents' latest deltas."""
        from ..cluster.merge import merge_stats

        with self._lock:
            by_monitor: Dict[str, List[Any]] = {}
            for state in self._agents.values():
                for monitor, stats in state.stats.items():
                    by_monitor.setdefault(monitor, []).append(stats)
        return {
            monitor: merge_stats(items)
            for monitor, items in sorted(by_monitor.items())
        }

    def merged_distribution(self) -> Dict[str, Any]:
        """Per-monitor distributions summed across agents' latest deltas.

        Addition across agents is exact because every agent's snapshot
        is cumulative and the (epoch, seq) guard already collapsed each
        agent to its newest self — the same replacement-then-sum rule as
        :meth:`merged_stats`, and the cluster's fold
        (:func:`~repro.cluster.merge.merge_distributions`), which leaves
        each agent's stage as decoded.
        """
        from ..cluster.merge import merge_distributions

        with self._lock:
            by_monitor: Dict[str, List[Any]] = {}
            for state in self._agents.values():
                for monitor, distribution in state.distribution.items():
                    by_monitor.setdefault(monitor, []).append(distribution)
        return {
            monitor: merge_distributions(items)
            for monitor, items in sorted(by_monitor.items())
        }

    def merged_telemetry(self) -> Optional[MetricsRegistry]:
        """The agents' latest telemetry registries, summed (the
        cluster's fold, :func:`~repro.cluster.merge.merge_telemetry`)."""
        from ..cluster.merge import merge_telemetry

        with self._lock:
            registries = [a.telemetry for a in self._agents.values()
                          if a.telemetry is not None]
        return merge_telemetry(registries)

    def merged_windows(self) -> List[WindowMinimum]:
        """Deduped windows from every agent, in close-time order."""
        with self._lock:
            windows = list(self._windows)
        windows.sort(key=lambda w: w.closed_at_ns)
        return windows

    def run_detector(self):
        """BGP-interception detection over the merged window stream."""
        return run_over_windows(self.merged_windows(), self.detector_config)

    def flow_registry(self) -> FlowRegistry:
        return self._registry

    def to_summary(self, *, include_windows: bool = False) -> Dict[str, Any]:
        """The whole merged view as one JSON-safe document.

        ``include_windows`` embeds the full merged window list (wire
        form) — exact but proportional to run length, so it is opt-in
        (the chaos harness compares multisets against a single-process
        reference).
        """
        from .wire import stats_to_wire, window_to_wire

        merged = self.merged_stats()
        merged_distribution = self.merged_distribution()
        detector = self.run_detector()
        with self._lock:
            agents = {
                a.agent_id: {
                    "epoch": a.epoch,
                    "seq": a.seq,
                    "connected": a.connected,
                    "finalized": a.finalized,
                    "deltas": a.deltas,
                    "heartbeats": a.heartbeats,
                    "records": dict(a.records),
                    "windows_closed": a.windows_closed,
                    "windows_received": a.windows_received,
                    "windows_lost": a.windows_lost,
                }
                for a in sorted(self._agents.values(),
                                key=lambda s: s.agent_id)
            }
            counts = dict(self._counts)
        registry = self._registry
        summary: Dict[str, Any] = {
            "schema": "dart-fleet-summary/1",
            "agents": agents,
            **counts,
            "stats": {m: stats_to_wire(s) for m, s in merged.items()},
            "distribution": {
                m: {
                    "samples": d.count,
                    "quantiles_ns": {
                        f"p{q:g}": rtt_ns
                        for q, rtt_ns in d.percentiles().items()
                    },
                }
                for m, d in merged_distribution.items()
            },
            "windows": len(self.merged_windows()),
            "windows_lost": sum(a["windows_lost"] for a in agents.values()),
            "flows": {
                "unique": registry.unique_flows(),
                "duplicates": registry.duplicate_flows(),
                "exactly_once_samples": registry.exactly_once_samples(),
                "attributed_samples": registry.attributed_samples(),
                "per_agent_samples": registry.per_agent_samples(),
            },
            "detector": {
                "state": detector.state.value,
                "events": len(detector.events),
                "suspected_at_ns": detector.suspected_at_ns,
                "confirmed_at_ns": detector.confirmed_at_ns,
            },
        }
        if include_windows:
            summary["window_list"] = [
                window_to_wire(w) for w in self.merged_windows()
            ]
        return summary

    # -- Prometheus exposition -------------------------------------------

    def collect_telemetry(self, registry: MetricsRegistry) -> None:
        """Populate ``fleet_*`` metrics; an obs collector callback."""
        with self._lock:
            agents = list(self._agents.values())
            counts = dict(self._counts)
        up_count = sum(1 for a in agents if self.agent_up(a))
        registry.gauge(
            "fleet_agents_connected", "agents currently up"
        ).set(value=up_count)
        registry.gauge(
            "fleet_agents_known", "agents ever seen"
        ).set(value=len(agents))
        for metric, text, key in _COUNTERS:
            registry.counter(metric, text).set_cumulative((), counts[key])
        lost_gauge = registry.gauge(
            "fleet_windows_lost_total",
            "windows agents closed but the fleet never merged",
            label_names=("agent",),
        )
        up_gauge = registry.gauge(
            "fleet_agent_up", "1 when the agent is connected and fresh",
            label_names=("agent",),
        )
        seq_gauge = registry.gauge(
            "fleet_agent_last_seq", "latest accepted frame sequence",
            label_names=("agent",),
        )
        deltas_gauge = registry.gauge(
            "fleet_agent_deltas", "cumulative deltas merged",
            label_names=("agent",),
        )
        for state in agents:
            label = (state.agent_id,)
            up_gauge.set(label, 1 if self.agent_up(state) else 0)
            seq_gauge.set(label, state.seq)
            deltas_gauge.set(label, state.deltas)
            lost_gauge.set(label, state.windows_lost)
        flows = self._registry
        registry.gauge(
            "fleet_flows_unique", "canonical flows across all taps"
        ).set(value=flows.unique_flows())
        registry.gauge(
            "fleet_flows_duplicate", "flows observed at >1 tap"
        ).set(value=flows.duplicate_flows())
        registry.gauge(
            "fleet_samples_exactly_once",
            "merged samples with multi-tap flows counted once",
        ).set(value=flows.exactly_once_samples())
        registry.gauge(
            "fleet_samples_attributed",
            "raw per-tap sample total (includes multi-tap overlap)",
        ).set(value=flows.attributed_samples())

    def prometheus_exposition(self) -> str:
        """One complete text exposition: fleet metrics + merged agent
        telemetry, in a single scrape body."""
        registry = MetricsRegistry()
        self.collect_telemetry(registry)
        from ..obs.collect import collect_distribution

        for monitor, distribution in self.merged_distribution().items():
            collect_distribution(registry, distribution, monitor)
        text = to_prometheus(registry)
        merged = self.merged_telemetry()
        if merged is not None:
            text += to_prometheus(merged)
        return text


class FleetServer:
    """Accept loop + per-connection reader threads over the wire."""

    def __init__(
        self,
        collector: FleetCollector,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> None:
        self.collector = collector
        self.unix_path = unix_path
        if unix_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(unix_path)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
        self._sock.listen(32)
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); ('', 0)-ish for unix sockets."""
        if self.unix_path is not None:
            return (self.unix_path, 0)
        host, port = self._sock.getsockname()[:2]
        return (host, port)

    def start(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed during shutdown
            reader = threading.Thread(
                target=self._read_loop, args=(conn,),
                name="fleet-reader", daemon=True,
            )
            reader.start()
            self._readers.append(reader)

    def _read_loop(self, conn: socket.socket) -> None:
        agent_id: Optional[str] = None
        stream = conn.makefile("rb")
        try:
            while True:
                frame = read_frame(stream)
                if frame is None:
                    break
                agent_id = frame.agent or agent_id
                self.collector.handle_frame(frame)
        except WireError:
            self.collector.note_corrupt_frame()
        except OSError:
            pass  # connection reset mid-frame: plain churn
        finally:
            stream.close()
            conn.close()
            if agent_id is not None:
                self.collector.mark_disconnected(agent_id)

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for reader in self._readers:
            reader.join(timeout=2.0)


class _FleetHttpHandler(BaseHTTPRequestHandler):
    """Serves the merged view; the collector rides on ``self.server``."""

    collector: FleetCollector  # set via server attribute

    def _respond(self, body: str, content_type: str, code: int = 200) -> None:
        blob = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        collector = self.server.collector  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._respond(collector.prometheus_exposition(),
                              "text/plain; version=0.0.4")
            elif path == "/agents":
                agents = collector.to_summary()["agents"]
                self._respond(json.dumps(agents, indent=2),
                              "application/json")
            elif path == "/summary":
                self._respond(json.dumps(collector.to_summary(), indent=2),
                              "application/json")
            elif path == "/healthz":
                self._respond("ok\n", "text/plain")
            else:
                self._respond("not found\n", "text/plain", code=404)
        except BrokenPipeError:
            pass

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes are not operator-facing events


class FleetHttpServer:
    """stdlib HTTP exposition for one collector."""

    def __init__(self, collector: FleetCollector, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = ThreadingHTTPServer((host, port), _FleetHttpHandler)
        self._server.collector = collector  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="fleet-http", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

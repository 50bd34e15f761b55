"""Adversarial workload traces: incast fan-in, video calls, file transfers.

The campus trace (:mod:`repro.traces.campus`) is distribution-calibrated
but *friendly*: every connection is an independent request/response over
its own links.  The generators here produce the traffic patterns the
paper's accuracy claims are most vulnerable to:

* :func:`generate_incast_trace` — partition/aggregate fan-in where
  synchronized worker responses overflow one shallow shared buffer and
  recovery is RTO-dominated (the T-RACKs regime): a concentrated burst
  of retransmission ambiguity.
* :func:`generate_video_trace` — long-lived, paced, bidirectional
  thin streams (frames at ~30 fps) where delayed ACKs dominate and
  clean SEQ/ACK matches are scarce.
* :func:`generate_file_transfer_trace` — elephants through a
  bandwidth-limited, deep-buffered bottleneck, so the congestion
  controller's steady-state (sawtooth vs. paced) shapes the RTT
  distribution the monitor reports (bufferbloat).

All three are deterministic functions of their config's ``seed``; every
random draw flows from one :class:`~repro.simnet.rng.SimRandom`.

Address plan: ``10.4.0.0/16`` is the internal (monitored-site) side,
``17.x.y.z`` the external peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.inet import InternalNetwork, ipv4_to_int
from ..net.packet import PacketRecord
from ..simnet.connection import Connection, ConnectionSpec, LegProfile
from ..simnet.engine import EventLoop
from ..simnet.link import Link
from ..simnet.monitor import MonitorTap
from ..simnet.rng import SimRandom
from ..simnet.tcp_endpoint import TcpEndpoint, TcpParams
from .workloads import (
    MS,
    SEC,
    FileTransferShape,
    IncastShape,
    VideoCallShape,
)

DC_NET = ipv4_to_int("10.4.0.0")
DC_INTERNAL_PREFIXES = ((DC_NET, 16),)
PEER_NET = ipv4_to_int("17.0.0.0")


@dataclass
class WorkloadTrace:
    """One generated workload trace plus the ground truth to score it."""

    kind: str
    records: List[PacketRecord]
    internal: InternalNetwork
    connections: int
    completed: int
    retransmissions: int
    timeouts: int
    events_processed: int

    @property
    def packets(self) -> int:
        return len(self.records)


def _isn(rng: SimRandom) -> int:
    return rng.randint(0, (1 << 32) - 1)


def _summarize(kind: str, tap: MonitorTap, loop: EventLoop,
               connections: List[Connection]) -> WorkloadTrace:
    completed = 0
    retransmissions = 0
    timeouts = 0
    for conn in connections:
        if conn.client.app_bytes_delivered >= conn.spec.response_bytes:
            completed += 1
        for endpoint in (conn.client, conn.server):
            if endpoint is None:
                continue
            retransmissions += endpoint.stats.retransmissions
            timeouts += endpoint.stats.timeouts
    return WorkloadTrace(
        kind=kind,
        records=tap.trace,
        internal=InternalNetwork(DC_INTERNAL_PREFIXES),
        connections=len(connections),
        completed=completed,
        retransmissions=retransmissions,
        timeouts=timeouts,
        events_processed=loop.events_processed,
    )


# -- incast ---------------------------------------------------------------------------------------


@dataclass
class IncastTraceConfig:
    """One incast run: an aggregator fanning out to synchronized workers."""

    seed: int = 1
    cc: str = "reno"
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    adaptive_rto: bool = True
    shape: IncastShape = field(default_factory=IncastShape)
    horizon_ns: Optional[int] = 60 * SEC


def generate_incast_trace(
    config: Optional[IncastTraceConfig] = None,
) -> WorkloadTrace:
    """Synthesize one incast trace (deterministic for a given config).

    Topology: each worker has its own access link into the tap, but all
    worker→aggregator traffic then shares ONE shallow-buffered
    bottleneck *behind* the tap.  The monitor therefore observes both
    originals and retransmissions, while the drops happen downstream —
    the worst case for retransmission disambiguation.
    """
    config = config or IncastTraceConfig()
    shape = config.shape
    rng = SimRandom(config.seed)
    loop = EventLoop()
    tap = MonitorTap(loop)

    # The shared fan-in bottleneck (tap -> aggregator).
    bottleneck = Link(
        loop,
        rng.fork("bottleneck"),
        delay_ns=shape.fanin_delay_ns,
        jitter_fraction=0.0,
        bandwidth_bps=shape.bottleneck_bandwidth_bps,
        queue_limit_ns=shape.queue_limit_ns,
        name="fanin-bottleneck",
    )
    receivers: Dict[int, TcpEndpoint] = {}

    def fanin_router(segment) -> None:
        receivers[segment.dst_port].receive(segment)

    bottleneck.connect(fanin_router)

    tcp = TcpParams(
        cc=config.cc,
        adaptive_rto=config.adaptive_rto,
        rto_ns=200 * MS,
    )
    aggregator_ip = DC_NET | 1

    connections: List[Connection] = []
    round_start = 1 * MS
    for round_index in range(shape.rounds):
        for worker in range(shape.senders):
            port = 30_000 + round_index * shape.senders + worker
            spec = ConnectionSpec(
                client_ip=aggregator_ip,
                client_port=port,
                server_ip=PEER_NET | (worker + 1),
                server_port=5001,
                request_bytes=shape.request_bytes,
                response_bytes=shape.response_bytes,
                start_ns=round_start + rng.randint(0, shape.sync_jitter_ns),
                internal=LegProfile(
                    delay_ns=shape.fanin_delay_ns,
                    jitter_fraction=0.0,
                    loss_rate=config.loss_rate / 4,
                    reorder_rate=config.reorder_rate,
                ),
                external=LegProfile(
                    delay_ns=shape.access_delay_ns,
                    jitter_fraction=0.02,
                    loss_rate=config.loss_rate,
                    reorder_rate=config.reorder_rate,
                ),
                tcp=tcp,
                client_isn=_isn(rng),
                server_isn=_isn(rng),
            )
            conn = Connection(loop, rng, tap, spec)
            # Reroute the response direction through the shared queue:
            # worker access link -> tap -> bottleneck -> aggregator.
            conn.link_s2m.connect(tap.tap_and_forward(bottleneck))
            receivers[port] = conn.client
            conn.start()
            connections.append(conn)
        round_start += shape.round_gap_ns

    loop.run(until_ns=config.horizon_ns)
    return _summarize("incast", tap, loop, connections)


# -- video conferencing ---------------------------------------------------------------------------


@dataclass
class VideoTraceConfig:
    """A handful of concurrent bidirectional video calls."""

    seed: int = 1
    cc: str = "reno"
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    adaptive_rto: bool = True
    calls: int = 3
    shape: VideoCallShape = field(default_factory=VideoCallShape)
    horizon_ns: Optional[int] = 120 * SEC


def generate_video_trace(
    config: Optional[VideoTraceConfig] = None,
) -> WorkloadTrace:
    """Synthesize concurrent video calls (deterministic per config)."""
    config = config or VideoTraceConfig()
    shape = config.shape
    rng = SimRandom(config.seed)
    loop = EventLoop()
    tap = MonitorTap(loop)
    tcp = TcpParams(cc=config.cc, adaptive_rto=config.adaptive_rto)

    connections: List[Connection] = []
    for call in range(config.calls):
        start_ns = call * 37 * MS + rng.randint(0, 20 * MS)
        external_delay = rng.randint(8 * MS, 45 * MS)
        spec = ConnectionSpec(
            client_ip=DC_NET | (0x100 + call),
            client_port=40_000 + call,
            server_ip=PEER_NET | (0x2000 + call),
            server_port=3478,
            request_bytes=300,  # signalling
            response_bytes=300,
            start_ns=start_ns,
            internal=LegProfile(
                delay_ns=rng.randint(200_000, 900_000),
                jitter_fraction=0.15,
                loss_rate=config.loss_rate / 4,
                reorder_rate=config.reorder_rate,
            ),
            external=LegProfile(
                delay_ns=external_delay,
                jitter_fraction=0.10,
                loss_rate=config.loss_rate,
                reorder_rate=config.reorder_rate,
            ),
            tcp=tcp,
            client_isn=_isn(rng),
            server_isn=_isn(rng),
            auto_close=False,
        )
        conn = Connection(loop, rng, tap, spec)
        conn.start()
        connections.append(conn)

        # Media: both sides push one frame per interval for the call's
        # duration, then close.  send_app_data queues if not yet
        # ESTABLISHED, so early frames simply buffer behind the
        # handshake (an application write into a connecting socket).
        frames_rng = rng.fork(f"frames:{call}")
        for index in range(shape.frame_count()):
            at = (start_ns + (index + 1) * shape.frame_interval_ns
                  + frames_rng.randint(0, 2 * MS))
            loop.schedule_at(at, conn.client.send_app_data,
                             shape.frame_size(frames_rng, index))
            loop.schedule_at(at + frames_rng.randint(0, 5 * MS),
                             conn.server.send_app_data,
                             shape.frame_size(frames_rng, index))
        hangup_ns = start_ns + shape.duration_ns + 200 * MS
        loop.schedule_at(hangup_ns, conn.server.close_when_done)
        loop.schedule_at(hangup_ns, conn.client.close_when_done)

    loop.run(until_ns=config.horizon_ns)
    return _summarize("video", tap, loop, connections)


# -- file transfer --------------------------------------------------------------------------------


@dataclass
class FileTransferTraceConfig:
    """Staggered bulk downloads through a shared-capacity bottleneck."""

    seed: int = 1
    cc: str = "reno"
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    adaptive_rto: bool = True
    transfers: int = 3
    shape: FileTransferShape = field(default_factory=FileTransferShape)
    horizon_ns: Optional[int] = 120 * SEC


def generate_file_transfer_trace(
    config: Optional[FileTransferTraceConfig] = None,
) -> WorkloadTrace:
    """Synthesize bulk downloads (deterministic per config)."""
    config = config or FileTransferTraceConfig()
    shape = config.shape
    rng = SimRandom(config.seed)
    loop = EventLoop()
    tap = MonitorTap(loop)
    tcp = TcpParams(cc=config.cc, adaptive_rto=config.adaptive_rto)

    connections: List[Connection] = []
    for index in range(config.transfers):
        external_delay = rng.randint(6 * MS, 25 * MS)
        spec = ConnectionSpec(
            client_ip=DC_NET | (0x200 + index),
            client_port=50_000 + index,
            server_ip=PEER_NET | (0x3000 + index),
            server_port=443,
            request_bytes=500,
            response_bytes=shape.transfer_bytes,
            start_ns=index * 120 * MS + rng.randint(0, 50 * MS),
            internal=LegProfile(
                delay_ns=rng.randint(150_000, 600_000),
                jitter_fraction=0.10,
                loss_rate=config.loss_rate / 4,
                reorder_rate=config.reorder_rate,
            ),
            external=LegProfile(
                delay_ns=external_delay,
                jitter_fraction=0.05,
                loss_rate=config.loss_rate,
                reorder_rate=config.reorder_rate,
                # The server->monitor direction carries the elephant and
                # is where the sawtooth/pacing difference shows up.
                bandwidth_bps=shape.bottleneck_bandwidth_bps,
                queue_limit_ns=shape.queue_limit_ns,
            ),
            tcp=tcp,
            client_isn=_isn(rng),
            server_isn=_isn(rng),
        )
        conn = Connection(loop, rng, tap, spec)
        conn.start()
        connections.append(conn)

    loop.run(until_ns=config.horizon_ns)
    return _summarize("file-transfer", tap, loop, connections)

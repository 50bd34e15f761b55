"""Synthetic campus trace generation (stand-in for the Princeton trace).

Builds a population of TCP connections between campus clients (wired and
wireless subnets) and Internet servers, routes them all through one
monitor tap, runs the event simulation, and returns the observed packet
stream plus ground-truth metadata.

Address plan::

    10.1.0.0/16   campus wired clients
    10.2.0.0/16   campus wireless clients
    16.x.y.z      Internet servers (drawn from a pool of /24 prefixes)

The returned :class:`CampusTrace` knows which side is internal, so
monitors can split internal/external legs exactly as the hardware
deployment does (paper §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..net.inet import InternalNetwork, ipv4_to_int, ipv6_to_int
from ..net.packet import PacketRecord
from ..simnet.connection import Connection, ConnectionSpec, LegProfile
from ..simnet.engine import EventLoop
from ..simnet.monitor import MonitorTap
from ..simnet.rng import SimRandom
from ..simnet.tcp_endpoint import TcpParams
from .workloads import MS, SEC, CampusWorkload

WIRED_NET = ipv4_to_int("10.1.0.0")
WIRELESS_NET = ipv4_to_int("10.2.0.0")
SERVER_NET = ipv4_to_int("16.0.0.0")

# Dual-stack address plan (paper §7: Dart extends to IPv6).
WIRED_NET6 = ipv6_to_int("2001:db8:1::")
WIRELESS_NET6 = ipv6_to_int("2001:db8:2::")
SERVER_NET6 = ipv6_to_int("2400:cb00::")

INTERNAL_PREFIXES = (
    (WIRED_NET, 16),
    (WIRELESS_NET, 16),
    (WIRED_NET6, 48, 128),
    (WIRELESS_NET6, 48, 128),
)


@dataclass
class CampusTraceConfig:
    """Scale and mix knobs for one synthetic trace.

    The paper's trace has 1.38M connections / 135.78M packets; defaults
    here are scaled down ~100x so a full benchmark sweep runs in
    CPU-minutes.  Ratios (incomplete handshakes, wireless share) follow
    the paper.
    """

    connections: int = 1_500
    incomplete_fraction: float = 0.725
    wireless_fraction: float = 0.87
    duration_ns: int = 60 * SEC
    server_prefixes: int = 64
    servers_per_prefix: int = 8
    #: Fraction of connections running over IPv6 (dual-stack campus).
    #: Defaults to 0 so the paper-calibrated IPv4 benchmarks are
    #: unaffected; the IPv6 integration tests set it explicitly.
    ipv6_fraction: float = 0.0
    #: Congestion control for every endpoint (see :mod:`repro.simnet.cc`).
    cc: str = "reno"
    #: RFC 6298 adaptive RTO; False pins the historical fixed RTO.
    adaptive_rto: bool = True
    seed: int = 1
    workload: CampusWorkload = field(default_factory=CampusWorkload)
    #: Cap on simulated virtual time (stragglers schedule events far out).
    horizon_ns: Optional[int] = 400 * SEC


@dataclass
class CampusTrace:
    """The generated trace plus ground truth."""

    records: List[PacketRecord]
    internal: InternalNetwork
    config: CampusTraceConfig
    complete_connections: int
    incomplete_connections: int
    events_processed: int

    @property
    def packets(self) -> int:
        return len(self.records)


def _client_address(rng: SimRandom, wireless: bool, index: int,
                    ipv6: bool = False) -> int:
    if ipv6:
        net = WIRELESS_NET6 if wireless else WIRED_NET6
        return net | ((index * 2654435761) & 0xFFFFFFFF)
    net = WIRELESS_NET if wireless else WIRED_NET
    # Spread clients over the /16; uniqueness comes from (ip, port).
    host = (index * 2654435761) & 0xFFFF
    return net | host


def _server_address(rng: SimRandom, config: CampusTraceConfig,
                    ipv6: bool = False) -> int:
    prefix = rng.randint(0, config.server_prefixes - 1)
    host = rng.randint(1, config.servers_per_prefix)
    if ipv6:
        return SERVER_NET6 | (prefix << 16) | host
    return SERVER_NET | (prefix << 8) | host


def generate_campus_trace(
    config: Optional[CampusTraceConfig] = None,
) -> CampusTrace:
    """Synthesize one campus trace (deterministic for a given config)."""
    config = config or CampusTraceConfig()
    workload = config.workload
    rng = SimRandom(config.seed)
    loop = EventLoop()
    tap = MonitorTap(loop)

    complete = 0
    incomplete = 0
    connections: List[Connection] = []
    arrivals_rng = rng.fork("arrivals")
    mix_rng = rng.fork("mix")

    for index in range(config.connections):
        is_complete = not mix_rng.chance(config.incomplete_fraction)
        wireless = mix_rng.chance(config.wireless_fraction)
        is_v6 = mix_rng.chance(config.ipv6_fraction)
        client_ip = _client_address(mix_rng, wireless, index, ipv6=is_v6)
        client_port = 20_000 + (index % 40_000)
        server_ip = _server_address(mix_rng, config, ipv6=is_v6)
        server_port = mix_rng.weighted_choice((443, 80, 8443), (0.85, 0.12, 0.03))

        is_upload = mix_rng.chance(workload.upload_fraction)
        if is_upload:
            # Upload flow: the client is the bulk sender.
            request_bytes = workload.flow_sizes.sample_response_bytes(mix_rng)
            response_bytes = workload.flow_sizes.sample_request_bytes(mix_rng)
        else:
            request_bytes = workload.flow_sizes.sample_request_bytes(mix_rng)
            response_bytes = workload.flow_sizes.sample_response_bytes(mix_rng)

        # Keepalive stragglers: the bulk receiver's final ACK takes an
        # unmonitored path and a keepalive follows much later, so the
        # long-RTT tail appears on whichever leg carries the bulk data.
        client_straggler_ns = None
        server_straggler_ns = None
        if is_complete and mix_rng.chance(workload.straggler_fraction):
            low, high = workload.straggler_keepalive_range_ns
            delay = mix_rng.randint(low, high)
            if is_upload:
                server_straggler_ns = delay
                # A hung upload session: the server sends no response, so
                # its suppressed final ACK cannot piggyback on data.
                response_bytes = 0
            else:
                client_straggler_ns = delay

        internal_delay = (
            workload.wireless_delay if wireless else workload.wired_delay
        ).sample_ns(mix_rng)
        external_delay = workload.external_delay.sample_ns(mix_rng)
        if max(request_bytes, response_bytes) > 200_000:
            # Bulk transfers overwhelmingly go to nearby CDNs; without
            # this, a single elephant on a rare intercontinental path
            # dominates the upper percentiles of the sample distribution
            # (the real trace's 380K complete flows average this out).
            for _ in range(8):
                if external_delay <= 45 * MS:
                    break
                external_delay = workload.external_delay.sample_ns(mix_rng)
        loss, reorder = workload.impairments.sample(mix_rng)

        # The initial RTO scales with the drawn path RTT; with
        # adaptive_rto the RFC 6298 estimator takes over after the
        # first valid measurement, and in fixed mode this guard keeps
        # the RTO above the path RTT (no spurious fires every window).
        path_rtt = 2 * (internal_delay + external_delay)
        tcp = TcpParams(
            rto_ns=max(int(2.5 * path_rtt) + 120 * MS, 250 * MS),
            cc=config.cc,
            adaptive_rto=config.adaptive_rto,
        )

        spec = ConnectionSpec(
            client_ip=client_ip,
            client_port=client_port,
            server_ip=server_ip,
            server_port=server_port,
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            start_ns=arrivals_rng.randint(0, config.duration_ns),
            internal=LegProfile(
                delay_ns=internal_delay,
                jitter_fraction=0.10,
                loss_rate=loss / 4,  # most loss sits on the WAN side
                # Reordering before the monitor is what punches holes in
                # the sequence space the monitor observes (paper Fig 4d).
                reorder_rate=reorder,
            ),
            external=LegProfile(
                delay_ns=external_delay,
                jitter_fraction=0.08,
                loss_rate=loss,
                reorder_rate=reorder,
            ),
            tcp=tcp,
            complete=is_complete,
            client_isn=mix_rng.randint(0, (1 << 32) - 1),
            server_isn=mix_rng.randint(0, (1 << 32) - 1),
            straggler_keepalive_ns=client_straggler_ns,
            server_straggler_keepalive_ns=server_straggler_ns,
            # Straggler sessions hang without a FIN exchange — a FIN-ACK
            # through the monitor would acknowledge the final bytes and
            # pre-empt the distant keep-alive's long RTT sample.
            auto_close=(client_straggler_ns is None
                        and server_straggler_ns is None),
            ipv6=is_v6,
        )
        connection = Connection(loop, rng, tap, spec)
        connection.start()
        connections.append(connection)
        if is_complete:
            complete += 1
        else:
            incomplete += 1

    loop.run(until_ns=config.horizon_ns)

    return CampusTrace(
        records=tap.trace,
        internal=InternalNetwork(INTERNAL_PREFIXES),
        config=config,
        complete_connections=complete,
        incomplete_connections=incomplete,
        events_processed=loop.events_processed,
    )

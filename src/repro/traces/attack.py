"""Interception-attack trace generation (paper §5.2, Figs 7–8).

The paper launches an ethical BGP interception attack on the PEERING
testbed: traffic between Princeton and Northeastern is rerouted through
Amsterdam, so the wide-area RTT of a live TCP connection jumps from
~25 ms to ~120 ms at t ≈ 36 s.  We reproduce the *observable*: a
long-lived, continuously chatty TCP connection whose external-leg delay
is a step function of time.

The application model is a ping-pong session (think multiplayer gaming
or conferencing keep-alive): the client pushes a two-segment chunk every
``chunk_interval_ns`` and the server acknowledges promptly, yielding a
steady stream of external-leg RTT samples for the detector to consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.inet import InternalNetwork, ipv4_to_int
from ..net.packet import PacketRecord
from ..simnet.connection import Connection, ConnectionSpec, LegProfile
from ..simnet.engine import EventLoop
from ..simnet.monitor import MonitorTap
from ..simnet.rng import SimRandom
from ..simnet.tcp_endpoint import TcpParams
from .campus import INTERNAL_PREFIXES
from .workloads import MS, SEC

CLIENT_IP = ipv4_to_int("10.1.7.42")      # Princeton-side host
SERVER_IP = ipv4_to_int("184.164.236.7")  # PEERING prefix host


@dataclass
class AttackTraceConfig:
    """Timeline and path parameters for the interception scenario."""

    pre_attack_rtt_ns: int = 25 * MS
    post_attack_rtt_ns: int = 120 * MS
    internal_one_way_ns: int = int(1.5 * MS)
    attack_at_ns: int = 36 * SEC
    duration_ns: int = 80 * SEC
    chunk_interval_ns: int = 80 * MS
    chunk_segments: int = 2
    jitter_fraction: float = 0.04
    seed: int = 7

    def external_one_way_ns(self, now_ns: int) -> int:
        """The WAN leg's one-way delay as a function of virtual time."""
        rtt = (
            self.pre_attack_rtt_ns
            if now_ns < self.attack_at_ns
            else self.post_attack_rtt_ns
        )
        return rtt // 2 - self.internal_one_way_ns


@dataclass
class AttackTrace:
    """The observed packet stream plus scenario ground truth."""

    records: List[PacketRecord]
    config: AttackTraceConfig
    internal: InternalNetwork

    @property
    def packets(self) -> int:
        return len(self.records)

    def packets_after_attack(self) -> int:
        return sum(
            1 for r in self.records if r.timestamp_ns >= self.config.attack_at_ns
        )


def generate_attack_trace(config: AttackTraceConfig | None = None) -> AttackTrace:
    """Simulate the interception scenario; deterministic per config."""
    config = config or AttackTraceConfig()
    rng = SimRandom(config.seed)
    loop = EventLoop()
    tap = MonitorTap(loop)

    tcp = TcpParams(ack_every=2, segment_gap_ns=5_000)
    chunk_bytes = tcp.mss * config.chunk_segments

    spec = ConnectionSpec(
        client_ip=CLIENT_IP,
        client_port=51_000,
        server_ip=SERVER_IP,
        server_port=443,
        request_bytes=chunk_bytes,
        response_bytes=400,
        start_ns=0,
        internal=LegProfile(
            delay_ns=config.internal_one_way_ns,
            jitter_fraction=config.jitter_fraction,
        ),
        external=LegProfile(
            delay_ns=config.external_one_way_ns,
            jitter_fraction=config.jitter_fraction,
        ),
        tcp=tcp,
        complete=True,
        client_isn=rng.randint(0, (1 << 32) - 1),
        server_isn=rng.randint(0, (1 << 32) - 1),
        auto_close=False,
    )
    connection = Connection(loop, rng, tap, spec)
    connection.start()

    def push_chunk(elapsed_ns: int) -> None:
        if elapsed_ns > config.duration_ns:
            return
        if connection.client.established:
            connection.client.send_app_data(chunk_bytes)
        loop.schedule(config.chunk_interval_ns, push_chunk,
                      elapsed_ns + config.chunk_interval_ns)

    loop.schedule_at(config.chunk_interval_ns, push_chunk,
                     config.chunk_interval_ns)
    loop.run(until_ns=config.duration_ns + 5 * SEC)

    return AttackTrace(
        records=tap.trace,
        config=config,
        internal=InternalNetwork(INTERNAL_PREFIXES),
    )

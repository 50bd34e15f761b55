"""Event-driven TCP network simulator.

The substrate that generates realistic monitored packet streams: a
deterministic event loop, lossy/reordering links, TCP endpoints with
delayed/duplicate/cumulative ACKs and retransmission, and the monitor
tap that produces :class:`~repro.net.packet.PacketRecord` streams.
"""

from .cc import (
    BbrCC,
    CC_ALGORITHMS,
    CongestionControl,
    CubicCC,
    RenoCC,
    available_cc,
    make_cc,
)
from .connection import Connection, ConnectionSpec, LegProfile
from .engine import EventLoop, SimulationError
from .link import Link, LinkStats
from .monitor import MonitorTap
from .rng import SimRandom
from .rto import RtoEstimator
from .segment import SimSegment
from .tcp_endpoint import EndpointStats, TcpEndpoint, TcpParams

__all__ = [
    "BbrCC",
    "CC_ALGORITHMS",
    "CongestionControl",
    "Connection",
    "ConnectionSpec",
    "CubicCC",
    "EndpointStats",
    "EventLoop",
    "LegProfile",
    "Link",
    "LinkStats",
    "MonitorTap",
    "RenoCC",
    "RtoEstimator",
    "SimRandom",
    "SimSegment",
    "SimulationError",
    "TcpEndpoint",
    "TcpParams",
    "available_cc",
    "make_cc",
]

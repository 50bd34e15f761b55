"""QUIC spin-bit RTT monitoring (the paper's §7 extension).

QUIC hides the sequence/ACK state Dart matches on; the spin bit is the
only passive RTT signal.  This package provides the observer
(:class:`SpinBitMonitor`), the packet model, and a spin-semantics
traffic simulator for evaluating it against Dart's TCP sample rates.
"""

from .monitor import SpinBitMonitor, SpinBitStats
from .packet import QuicPacketRecord
from .sim import QuicScenarioConfig, QuicTrace, generate_quic_trace
from .wire import (
    quic_from_wire_bytes,
    quic_to_wire_bytes,
    read_quic_capture,
)

__all__ = [
    "QuicPacketRecord",
    "QuicScenarioConfig",
    "QuicTrace",
    "SpinBitMonitor",
    "SpinBitStats",
    "generate_quic_trace",
    "quic_from_wire_bytes",
    "quic_to_wire_bytes",
    "read_quic_capture",
]

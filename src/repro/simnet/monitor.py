"""The monitoring vantage point.

The tap sits on the path between the campus side and the Internet side
(paper Fig 1), sees both directions of every connection routed through
it, and produces the timestamped packet stream all monitors consume.
It can retain the trace (for offline replay into Dart/tcptrace) and/or
forward each observation to live consumers (for the real-time attack-
detection example, where Dart processes packets as the simulation runs).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..net.packet import PacketRecord
from .engine import EventLoop
from .segment import SimSegment

LiveConsumer = Callable[[PacketRecord], None]


class MonitorTap:
    """Observes segments passing a point on the path."""

    def __init__(
        self,
        loop: EventLoop,
        *,
        keep_trace: bool = True,
        consumers: Optional[Sequence[LiveConsumer]] = None,
    ) -> None:
        self._loop = loop
        self._keep_trace = keep_trace
        self._consumers: List[LiveConsumer] = list(consumers or [])
        self.trace: List[PacketRecord] = []
        self.observed = 0

    def attach(self, consumer: LiveConsumer) -> None:
        """Add a live consumer (e.g. ``dart.process``)."""
        self._consumers.append(consumer)

    def observe(self, segment: SimSegment) -> None:
        """Record one passing segment at the current virtual time."""
        record = segment.to_record(self._loop.now_ns)
        self.observed += 1
        if self._keep_trace:
            self.trace.append(record)
        for consumer in self._consumers:
            consumer(record)

    def tap_and_forward(self, next_hop) -> Callable[[SimSegment], None]:
        """A link handler that observes, then forwards to ``next_hop``.

        ``next_hop`` may be a Link (forwarded via ``send``) or any
        callable taking a segment.
        """
        forward = next_hop.send if hasattr(next_hop, "send") else next_hop

        def handler(segment: SimSegment) -> None:
            self.observe(segment)
            forward(segment)

        return handler

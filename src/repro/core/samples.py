"""RTT sample types and sample sinks.

Every monitor in this library (Dart, tcptrace, the strawman) emits
:class:`RttSample` objects.  A *sample sink* is anything with an
``add(sample)`` method; :class:`SampleCollector` is the standard sink that
retains samples for offline analysis, and the analytics module
(:mod:`repro.core.analytics`) provides streaming sinks.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

from ..net.packet import NS_PER_MS
from .flow import FlowKey


class RttSample(NamedTuple):
    """One matched SEQ/ACK round-trip time measurement.

    ``rtt_ns`` is the ACK arrival time minus the SEQ arrival time at the
    vantage point; ``timestamp_ns`` is the ACK arrival (i.e. when the
    sample became known); ``eack`` identifies which byte the sample is
    anchored to within the flow.

    A tuple, so a kernel builds one in C (``tuple.__new__(RttSample,
    row)``, no ``__init__`` frame) and it pickles as its six values.
    Like every tuple it equals the plain tuple of its fields.
    """

    flow: FlowKey
    rtt_ns: int
    timestamp_ns: int
    eack: int
    handshake: bool = False
    leg: Optional[str] = None

    @property
    def rtt_ms(self) -> float:
        """RTT in milliseconds (for reports; internals stay integral)."""
        return self.rtt_ns / NS_PER_MS


class SampleCollector:
    """A sink that stores every sample in arrival order."""

    def __init__(self) -> None:
        self.samples: List[RttSample] = []

    def add(self, sample: RttSample) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[RttSample]:
        return iter(self.samples)

    def rtts_ms(self) -> List[float]:
        """All RTT values in milliseconds, in arrival order."""
        return [s.rtt_ns / NS_PER_MS for s in self.samples]

    def for_flow(self, flow: FlowKey) -> List[RttSample]:
        """Samples belonging to one SEQ-direction flow."""
        return [s for s in self.samples if s.flow == flow]

    def clear(self) -> None:
        self.samples.clear()

    def drain(self) -> List[RttSample]:
        """Hand over the retained samples and start an empty list.

        The streaming rotation primitive: callers that already routed
        the live sample stream elsewhere use this to empty the retained
        copy without losing the list object they handed out.
        """
        drained = self.samples
        self.samples = []
        return drained

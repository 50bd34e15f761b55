"""Passive spin-bit RTT monitoring (paper §7, "Extending Dart to QUIC").

The observer watches one direction of a connection (client-to-server is
the canonical choice: the client drives the spin) and emits an RTT
sample at every spin-bit *transition* — the elapsed time since the
previous transition is one round trip.

The paper's caveats, all reproduced by this implementation and
measurable in the benchmarks:

* at most one valid sample per RTT (vs Dart's per-packet samples);
* the first transition after observation starts carries no sample
  (no previous edge to measure from);
* loss or reordering of the edge-carrying packet corrupts a sample and
  there is no retransmission/reordering signal to detect it with, so a
  sanity filter (``max_plausible_rtt_ns``) is the only defence;
* long-header (handshake) packets carry no spin bit and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.flow import FlowKey
from ..core.samples import RttSample
from ..core.stats import AdditiveCounters
from .packet import QuicPacketRecord


@dataclass(slots=True)
class SpinBitStats(AdditiveCounters):
    packets_processed: int = 0
    long_header_skipped: int = 0
    wrong_direction_skipped: int = 0
    transitions: int = 0
    samples: int = 0
    implausible_discarded: int = 0


@dataclass(slots=True)
class _SpinState:
    last_spin: bool
    last_edge_ns: Optional[int] = None


class SpinBitMonitor:
    """One-direction spin-bit observer.

    ``is_client`` orients the observer: only packets whose source is the
    client side are inspected (the client's edge-to-edge period is the
    full RTT).  ``max_plausible_rtt_ns`` drops absurd samples caused by
    application silence (spin edges only advance while traffic flows).
    """

    def __init__(
        self,
        *,
        is_client,
        max_plausible_rtt_ns: Optional[int] = 10_000_000_000,
    ) -> None:
        self._is_client = is_client
        self._max_plausible = max_plausible_rtt_ns
        self._flows: Dict[FlowKey, _SpinState] = {}
        self.samples: List[RttSample] = []
        self.stats = SpinBitStats()

    def drain_samples(self) -> List[RttSample]:
        """Hand over (and forget) the retained samples.

        Cumulative counters in :attr:`stats` are unaffected; only the
        retained list is emptied (the streaming rotation primitive).
        """
        drained = self.samples
        self.samples = []
        return drained

    def process(self, record: QuicPacketRecord) -> List[RttSample]:
        self.stats.packets_processed += 1
        if record.long_header:
            self.stats.long_header_skipped += 1
            return []
        if not self._is_client(record.src_ip):
            self.stats.wrong_direction_skipped += 1
            return []
        flow = record.flow
        state = self._flows.get(flow)
        if state is None:
            self._flows[flow] = _SpinState(last_spin=record.spin_bit)
            return []
        if record.spin_bit == state.last_spin:
            return []
        # A spin edge: one full round trip since the previous edge.
        self.stats.transitions += 1
        state.last_spin = record.spin_bit
        previous = state.last_edge_ns
        state.last_edge_ns = record.timestamp_ns
        if previous is None:
            return []
        rtt = record.timestamp_ns - previous
        if self._max_plausible is not None and rtt > self._max_plausible:
            self.stats.implausible_discarded += 1
            return []
        sample = RttSample(
            flow=flow,
            rtt_ns=rtt,
            timestamp_ns=record.timestamp_ns,
            eack=0,
        )
        self.samples.append(sample)
        self.stats.samples += 1
        return [sample]

    def process_batch(
        self, records: Iterable[Optional[QuicPacketRecord]]
    ) -> List[RttSample]:
        """Process a batch of datagrams; ``None`` entries are skipped.

        Part of the :class:`repro.engine.RttMonitor` surface — identical
        to calling :meth:`process` per record, so callers drive QUIC and
        TCP monitors through one loop.
        """
        process = self.process
        out: List[RttSample] = []
        for record in records:
            if record is not None:
                out.extend(process(record))
        return out

    def finalize(self, at_ns: Optional[int] = None) -> None:
        """End-of-trace hook (spin state needs no flushing).

        Exists so callers never special-case the QUIC monitor: its
        surface matches the TCP monitors' (`stats`, `samples`,
        ``process_batch``, ``finalize``).
        """

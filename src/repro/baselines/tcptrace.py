"""A from-scratch reimplementation of tcptrace's RTT engine.

tcptrace (Ostermann) is the paper's offline oracle (§6.1, §8): software
with unlimited, fully-associative memory that matches data segments with
the ACKs that acknowledge them.  Differences from Dart the paper calls
out — all reproduced here:

* tcptrace tracks **every** outstanding byte range per flow (a list of
  open segments), so a hole in the sequence space costs it nothing,
  whereas Dart keeps a single measurement range;
* tcptrace applies Karn's algorithm per segment: a retransmitted
  segment's sample is discarded, but *other* in-flight segments keep
  their eligibility (Dart conservatively collapses the whole range);
* tcptrace tracks through 32-bit sequence wraparound (Dart resets);
* tcptrace has a quadrant-accounting flaw (paper §6.1 footnote 3): a
  segment spanning two consecutive quadrants of the sequence space
  yields a spurious extra RTT sample.  ``emulate_quadrant_bug``
  reproduces it (on by default, matching the binary the paper ran).

RTT samples are emitted on exact acknowledgment: an ACK produces one
sample, anchored to the segment whose end equals the ACK number (the
normal case — receivers acknowledge on segment boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.flow import FlowKey, ack_target_flow, flow_of
from ..core.samples import RttSample
from ..core.seqspace import seq_le
from ..core.stats import AdditiveCounters
from ..net.packet import PacketRecord

_QUADRANT_SHIFT = 30  # sequence space divided into four 2**30 quadrants


@dataclass(slots=True)
class _OpenSegment:
    """One unacknowledged data segment."""

    seq: int
    eack: int
    timestamp_ns: int
    retransmitted: bool = False
    handshake: bool = False


@dataclass(slots=True)
class _FlowState:
    segments: Dict[int, _OpenSegment] = field(default_factory=dict)  # by eack
    highest_eack_sent: Optional[int] = None
    highest_ack_seen: Optional[int] = None


@dataclass(slots=True)
class TcpTraceStats(AdditiveCounters):
    packets_processed: int = 0
    data_segments: int = 0
    retransmissions_marked: int = 0
    samples: int = 0
    karn_discards: int = 0
    quadrant_extra_samples: int = 0
    ignored_syn: int = 0


class TcpTrace:
    """The tcptrace-variant RTT monitor.

    Mirrors Dart's interface: ``process(record) -> list[RttSample]``,
    plus a retained ``samples`` list.
    """

    def __init__(
        self,
        *,
        track_handshake: bool = True,
        emulate_quadrant_bug: bool = True,
        leg_filter=None,
    ) -> None:
        self._track_handshake = track_handshake
        self._emulate_quadrant_bug = emulate_quadrant_bug
        self._leg_filter = leg_filter
        self._flows: Dict[FlowKey, _FlowState] = {}
        self.samples: List[RttSample] = []
        self.stats = TcpTraceStats()

    def drain_samples(self) -> List[RttSample]:
        """Hand over (and forget) the retained samples.

        Cumulative counters in :attr:`stats` are unaffected; only the
        retained list is emptied (the streaming rotation primitive).
        """
        drained = self.samples
        self.samples = []
        return drained

    # -- packet entry point ---------------------------------------------------

    def process(self, record: PacketRecord) -> List[RttSample]:
        self.stats.packets_processed += 1
        if record.syn and not self._track_handshake:
            self.stats.ignored_syn += 1
            return []
        if record.rst:
            return []
        out: List[RttSample] = []
        if record.carries_data:
            self._on_data(record)
        if record.has_ack:
            out = self._on_ack(record)
        return out

    def process_batch(
        self, records: Iterable[Optional[PacketRecord]]
    ) -> List[RttSample]:
        """Process a batch of packets; ``None`` entries are skipped.

        Part of the :class:`repro.engine.RttMonitor` surface — identical
        to calling :meth:`process` per record.
        """
        process = self.process
        out: List[RttSample] = []
        for record in records:
            if record is not None:
                out.extend(process(record))
        return out

    def finalize(self, at_ns: Optional[int] = None) -> None:
        """End-of-trace hook (no deferred state to flush)."""

    # -- data side ----------------------------------------------------------------

    def _on_data(self, record: PacketRecord) -> None:
        leg = None
        if self._leg_filter is not None:
            leg = self._leg_filter(record.src_ip)
            if leg is None:
                return
        self.stats.data_segments += 1
        flow = flow_of(record)
        state = self._flows.get(flow)
        if state is None:
            state = _FlowState()
            self._flows[flow] = state
        eack = record.eack
        existing = state.segments.get(eack)
        is_retransmission = False
        if existing is not None:
            is_retransmission = True
        elif state.highest_eack_sent is not None and seq_le(
            eack, state.highest_eack_sent
        ):
            # Sends below the highest byte transmitted are retransmitted
            # (or overlapping) data: Karn's algorithm disqualifies them.
            is_retransmission = True
        if is_retransmission:
            self.stats.retransmissions_marked += 1
            segment = existing or _OpenSegment(
                seq=record.seq, eack=eack, timestamp_ns=record.timestamp_ns
            )
            segment.retransmitted = True
            segment.timestamp_ns = record.timestamp_ns
            state.segments[eack] = segment
            return
        state.segments[eack] = _OpenSegment(
            seq=record.seq,
            eack=eack,
            timestamp_ns=record.timestamp_ns,
            handshake=record.syn,
        )
        if state.highest_eack_sent is None or seq_le(
            state.highest_eack_sent, eack
        ):
            state.highest_eack_sent = eack

    # -- ACK side -----------------------------------------------------------------

    def _on_ack(self, record: PacketRecord) -> List[RttSample]:
        flow = ack_target_flow(record)
        state = self._flows.get(flow)
        if state is None:
            return []
        ack = record.ack
        if state.highest_ack_seen is not None and seq_le(
            ack, state.highest_ack_seen
        ):
            return []  # duplicate or old ACK: acknowledges nothing new
        state.highest_ack_seen = ack

        # Retire every segment the cumulative ACK covers; the sample is
        # anchored to the exactly-matching segment.
        covered = [
            e for e in state.segments if seq_le(e, ack)
        ]
        exact = state.segments.get(ack)
        out: List[RttSample] = []
        if exact is not None:
            if exact.retransmitted:
                self.stats.karn_discards += 1
            else:
                out.append(self._emit(flow, exact, record.timestamp_ns, ack))
                if self._emulate_quadrant_bug and self._spans_quadrants(exact):
                    # The flaw the paper footnotes: a segment crossing a
                    # quadrant boundary is double-counted.
                    out.append(
                        self._emit(flow, exact, record.timestamp_ns, ack)
                    )
                    self.stats.quadrant_extra_samples += 1
        for eack in covered:
            del state.segments[eack]
        return out

    def _emit(
        self, flow: FlowKey, segment: _OpenSegment, now_ns: int, ack: int
    ) -> RttSample:
        sample = RttSample(
            flow=flow,
            rtt_ns=now_ns - segment.timestamp_ns,
            timestamp_ns=now_ns,
            eack=ack,
            handshake=segment.handshake,
        )
        self.samples.append(sample)
        self.stats.samples += 1
        return sample

    @staticmethod
    def _spans_quadrants(segment: _OpenSegment) -> bool:
        start_quadrant = segment.seq >> _QUADRANT_SHIFT
        end_quadrant = ((segment.eack - 1) & 0xFFFFFFFF) >> _QUADRANT_SHIFT
        return start_quadrant != end_quadrant

    # -- introspection ----------------------------------------------------------

    def open_segments(self) -> int:
        """Total outstanding segments across all flows (memory proxy)."""
        return sum(len(s.segments) for s in self._flows.values())

    def flows(self) -> int:
        return len(self._flows)

"""A Dapper-style single-outstanding-sample monitor (paper §8).

Dapper (Ghasemi et al.) tracks **one** data packet per flow at a time:
it records a segment's expected ACK and timestamp, waits for the
matching ACK, and only then arms the next measurement.  The paper's
critique — "it would report too few samples per unit time to be
useful" when RTTs are large — is exactly what the sample-rate ablation
benchmark measures against Dart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.flow import FlowKey, ack_target_flow, flow_of
from ..core.samples import RttSample
from ..core.seqspace import seq_le
from ..core.stats import AdditiveCounters
from ..net.packet import PacketRecord


@dataclass(slots=True)
class _Pending:
    eack: int
    timestamp_ns: int


@dataclass(slots=True)
class DapperStats(AdditiveCounters):
    packets_processed: int = 0
    samples: int = 0
    armed: int = 0
    skipped_busy: int = 0


class DapperMonitor:
    """One in-flight RTT measurement per flow."""

    def __init__(self, *, track_handshake: bool = False, leg_filter=None) -> None:
        self._track_handshake = track_handshake
        self._leg_filter = leg_filter
        self._pending: Dict[FlowKey, _Pending] = {}
        self.samples: List[RttSample] = []
        self.stats = DapperStats()

    def drain_samples(self) -> List[RttSample]:
        """Hand over (and forget) the retained samples.

        Cumulative counters in :attr:`stats` are unaffected; only the
        retained list is emptied (the streaming rotation primitive).
        """
        drained = self.samples
        self.samples = []
        return drained

    def process(self, record: PacketRecord) -> List[RttSample]:
        self.stats.packets_processed += 1
        if record.syn and not self._track_handshake:
            return []
        if record.rst:
            return []
        if record.carries_data:
            self._on_data(record)
        out: List[RttSample] = []
        if record.has_ack:
            sample = self._on_ack(record)
            if sample is not None:
                out.append(sample)
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

    def _on_data(self, record: PacketRecord) -> None:
        if self._leg_filter is not None and self._leg_filter(record) is None:
            return
        flow = flow_of(record)
        if flow in self._pending:
            self.stats.skipped_busy += 1
            return
        self._pending[flow] = _Pending(
            eack=record.eack, timestamp_ns=record.timestamp_ns
        )
        self.stats.armed += 1

    def _on_ack(self, record: PacketRecord) -> Optional[RttSample]:
        flow = ack_target_flow(record)
        pending = self._pending.get(flow)
        if pending is None:
            return None
        # A cumulative ACK at or beyond the armed segment completes the
        # measurement (Dapper does not require an exact match).
        if not seq_le(pending.eack, record.ack):
            return None
        del self._pending[flow]
        sample = RttSample(
            flow=flow,
            rtt_ns=record.timestamp_ns - pending.timestamp_ns,
            timestamp_ns=record.timestamp_ns,
            eack=pending.eack,
        )
        self.samples.append(sample)
        self.stats.samples += 1
        return sample

"""The strawman data-plane design (paper §2.1; Chen et al. [12]).

A single hash table keyed by ``(flow, expected ACK)`` holding a
timestamp: every data packet inserts, every ACK looks up and deletes.
No range tracking, no recirculation.  Its failure modes are exactly the
paper's §2.2/§2.3 catalogue:

* retransmissions silently *refresh or keep* an entry, so the eventual
  ACK produces an ambiguous (usually wrong) sample;
* reordering-driven cumulative ACKs match and produce inflated samples;
* stranded entries (cumulatively-ACKed or SYN-flood) pin memory until a
  timeout or a colliding overwrite evicts them — both of which bias
  against long RTTs.

Eviction policy knobs reproduce the two options §2.3 considers: a
timeout (``timeout_ns``) and overwrite-on-collision (always on for the
fixed-size table; the new entry wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.flow import FlowKey, ack_target_flow, flow_of
from ..core.hashing import pack_u32, stage_index
from ..core.samples import RttSample
from ..core.stats import AdditiveCounters
from ..net.packet import PacketRecord


@dataclass(slots=True)
class _Entry:
    signature: int
    flow: FlowKey
    eack: int
    timestamp_ns: int


@dataclass(slots=True)
class StrawmanStats(AdditiveCounters):
    packets_processed: int = 0
    inserts: int = 0
    overwrites: int = 0
    refreshes: int = 0
    timeout_evictions: int = 0
    samples: int = 0
    ignored_syn: int = 0


class Strawman:
    """The §2.1 strawman monitor.

    ``slots=None`` gives an unlimited dict-backed table (isolating the
    correctness problems from the memory ones); an integer gives a
    one-way-associative hash table like the hardware would use.
    """

    def __init__(
        self,
        slots: Optional[int] = None,
        *,
        timeout_ns: Optional[int] = None,
        track_handshake: bool = False,
        leg_filter=None,
    ) -> None:
        self._slots = slots
        self._timeout_ns = timeout_ns
        self._track_handshake = track_handshake
        self._leg_filter = leg_filter
        if slots is None:
            self._table: Dict[Tuple[FlowKey, int], _Entry] = {}
        else:
            self._array: List[Optional[_Entry]] = [None] * slots
        self.samples: List[RttSample] = []
        self.stats = StrawmanStats()

    def drain_samples(self) -> List[RttSample]:
        """Hand over (and forget) the retained samples.

        Cumulative counters in :attr:`stats` are unaffected; only the
        retained list is emptied (the streaming rotation primitive).
        """
        drained = self.samples
        self.samples = []
        return drained

    # -- entry point -----------------------------------------------------------

    def process(self, record: PacketRecord) -> List[RttSample]:
        self.stats.packets_processed += 1
        if record.syn and not self._track_handshake:
            self.stats.ignored_syn += 1
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

    # -- table backends -----------------------------------------------------------

    def _index(self, flow: FlowKey, eack: int) -> int:
        return stage_index(pack_u32(flow.signature, eack), 0, self._slots)

    def _insert(self, flow: FlowKey, eack: int, now_ns: int) -> None:
        entry = _Entry(
            signature=flow.signature, flow=flow, eack=eack, timestamp_ns=now_ns
        )
        self.stats.inserts += 1
        if self._slots is None:
            if (flow, eack) in self._table:
                self.stats.refreshes += 1
            self._table[(flow, eack)] = entry
            return
        index = self._index(flow, eack)
        occupant = self._array[index]
        if occupant is not None:
            if occupant.signature == entry.signature and occupant.eack == eack:
                self.stats.refreshes += 1
            else:
                self.stats.overwrites += 1
        self._array[index] = entry

    def _lookup_delete(
        self, flow: FlowKey, ack: int, now_ns: int
    ) -> Optional[_Entry]:
        if self._slots is None:
            entry = self._table.pop((flow, ack), None)
        else:
            index = stage_index(pack_u32(flow.signature, ack), 0, self._slots)
            occupant = self._array[index]
            entry = None
            if (
                occupant is not None
                and occupant.signature == flow.signature
                and occupant.eack == ack
            ):
                entry = occupant
                self._array[index] = None
        if entry is None:
            return None
        if (
            self._timeout_ns is not None
            and now_ns - entry.timestamp_ns > self._timeout_ns
        ):
            self.stats.timeout_evictions += 1
            return None
        return entry

    # -- packet handling -----------------------------------------------------------

    def _on_data(self, record: PacketRecord) -> None:
        if self._leg_filter is not None and self._leg_filter(record) is None:
            return
        self._insert(flow_of(record), record.eack, record.timestamp_ns)

    def _on_ack(self, record: PacketRecord) -> Optional[RttSample]:
        flow = ack_target_flow(record)
        entry = self._lookup_delete(flow, record.ack, record.timestamp_ns)
        if entry is None:
            return None
        sample = RttSample(
            flow=entry.flow,
            rtt_ns=record.timestamp_ns - entry.timestamp_ns,
            timestamp_ns=record.timestamp_ns,
            eack=record.ack,
        )
        self.samples.append(sample)
        self.stats.samples += 1
        return sample

    def occupancy(self) -> int:
        if self._slots is None:
            return len(self._table)
        return sum(1 for e in self._array if e is not None)

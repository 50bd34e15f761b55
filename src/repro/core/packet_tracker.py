"""The Packet Tracker (PT) table — paper §3.2.

The PT stores one record per tracked SEQ packet, keyed by
``(flow signature, expected ACK)``, holding the packet's arrival
timestamp.  A matching ACK deletes the record and yields an RTT sample.

Memory contention is resolved by *lazy eviction with a second chance*:

* Records are only considered for eviction when a new record hash-collides
  with them — no timeouts, no garbage collection.
* An evicted record is *recirculated*: it re-consults the Range Tracker,
  self-destructs if stale, and otherwise re-enters PT insertion, where
  older valid records win contention (no bias against long RTTs).
* *Cycle detection* stops A-evicts-B-evicts-A ping-pong: each record
  remembers the record it last evicted and self-destructs rather than
  evicting it a second time.  A per-record recirculation budget is the
  final backstop.

Multi-stage layout (paper §6.2, Figs 12–13): ``pt_slots`` are divided
across ``stages`` one-way-associative stages with independent hash
functions.  A record visits stages sequentially (hardware memory cannot
be revisited within a pass):

* any pass may claim an **empty** slot at any stage;
* a **fresh** record in a *single-stage* table force-evicts the occupant
  of its only slot (the paper's explicit §3.2 mechanism);
* a fresh record in a *multi-stage* table cannot evict on its first pass
  (at stage *s* the hardware cannot yet know whether a later stage is
  free, so eviction rights are deferred); an unplaced record recirculates;
* recirculation pass *p* may force-evict at stage ``(p - 1) mod k``, so
  allowing more recirculations rotates eviction rights across all stages
  (this is what lets Fig 13 recover the performance Fig 12 loses).

The module only implements table mechanics; the recirculation *loop*
(RT re-validation, budget, analytics purge) lives in
:mod:`repro.core.pipeline`.
"""

from __future__ import annotations

import enum
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Tuple
from zlib import crc32

from .flow import FlowKey, intern_flow
from .hashing import _STAGE_SALTS, pack2_u32


class PtRecord(NamedTuple):
    """One tracked SEQ packet awaiting its ACK: a PT slot's registers.

    A tuple, stored in its slot as the kernel built it (in C, with
    :data:`new_row`); an eviction or a recirculation that changes a
    field stores or hands on a new tuple.
    """

    record_id: int
    flow: FlowKey
    signature: int
    eack: int
    timestamp_ns: int
    handshake: bool = False
    leg: Optional[str] = None
    recirc_count: int = 0
    last_evicted_id: Optional[int] = None


#: Builds a row tuple (``PtRecord``, ``RttSample``) from its values in
#: C: a ``NamedTuple``'s own ``__new__`` is a Python frame.
new_row = tuple.__new__


class InsertStatus(enum.Enum):
    """Outcome of one insertion pass through the PT stages."""

    PLACED = "placed"              # found an empty slot
    PLACED_EVICTING = "evicting"   # force-evicted an occupant
    DUPLICATE = "duplicate"        # same key already present (older kept)
    CYCLE = "cycle"                # would re-evict its own victim
    UNPLACED = "unplaced"          # no slot available this pass


class InsertOutcome(NamedTuple):
    status: InsertStatus
    evicted: Optional[PtRecord] = None


# Only an eviction carries a record; every other pass returns one of these.
_PLACED = InsertOutcome(InsertStatus.PLACED)
_DUPLICATE = InsertOutcome(InsertStatus.DUPLICATE)
_CYCLE = InsertOutcome(InsertStatus.CYCLE)
_UNPLACED = InsertOutcome(InsertStatus.UNPLACED)
_EVICTING = InsertStatus.PLACED_EVICTING


class AssociativePacketTable:
    """Unlimited fully-associative PT backend (§6.1 ideal mode).

    Keys are exact ``(flow, eack)`` pairs — an infinite, collision-free
    memory never needs signatures, eviction, or recirculation.
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple[FlowKey, int], PtRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: PtRecord) -> InsertOutcome:
        key = (record.flow, record.eack)
        if key in self._records:
            # A same-key insert can only be a retransmission that slipped
            # past range tracking; the older record is kept (paper: older
            # records are preferred).
            return _DUPLICATE
        self._records[key] = record
        return _PLACED

    def match_ack(self, flow: FlowKey, ack: int) -> Optional[PtRecord]:
        """Find-and-delete the record acknowledged by ``ack``."""
        return self._records.pop((flow, ack), None)

    def discard_flow(self, flow: FlowKey) -> int:
        """Drop all records of one flow (operator/test helper)."""
        keys = [k for k in self._records if k[0] == flow]
        for key in keys:
            del self._records[key]
        return len(keys)

    def occupancy(self) -> int:
        return len(self._records)


class StagedPacketTable:
    """Fixed-size k-stage PT backend with the contention policy above."""

    def __init__(self, total_slots: int, stages: int = 1) -> None:
        if stages < 1:
            raise ValueError("PT needs at least one stage")
        if total_slots < stages:
            raise ValueError("PT needs at least one slot per stage")
        self._stage_count = stages
        self._stage_slots = total_slots // stages
        self._stages: List[List[Optional[PtRecord]]] = [
            [None] * self._stage_slots for _ in range(stages)
        ]
        # Maintained at every None<->record transition so occupancy() is
        # O(1) — telemetry samples it per emission, and a slot scan
        # would dominate the emission cost.
        self._occupied = 0

    def __len__(self) -> int:
        return self._stage_count * self._stage_slots

    @property
    def stage_count(self) -> int:
        return self._stage_count

    @property
    def stage_slots(self) -> int:
        return self._stage_slots

    def insert(self, record: PtRecord) -> InsertOutcome:
        """One insertion pass; never recirculates by itself.

        Stage indices are ``stage_index`` of ``(signature, eack)`` written
        out (one CRC per pass), as in :meth:`match_ack`: no helper frame.
        """
        _, _, signature, eack, _, _, _, recirc_count, last_evicted_id = record
        # The stage at which this pass holds eviction rights (None = none).
        if recirc_count:
            force_stage = (recirc_count - 1) % self._stage_count
        else:
            # A fresh record in a single-stage table knows its only slot is
            # its last chance, so it evicts immediately (paper §3.2).  In a
            # multi-stage table it must first look for empty slots.
            force_stage = 0 if self._stage_count == 1 else None
        crc = crc32(pack2_u32(signature, eack))
        size = self._stage_slots
        for stage, slots in enumerate(self._stages):
            x = crc ^ _STAGE_SALTS[stage]
            x ^= x >> 16
            x = (x * 0x85EBCA6B) & 0xFFFFFFFF
            x ^= x >> 13
            x = (x * 0xC2B2AE35) & 0xFFFFFFFF
            index = (x ^ (x >> 16)) % size
            occupant = slots[index]
            if occupant is None:
                slots[index] = record
                self._occupied += 1
                return _PLACED
            if occupant.signature == signature and occupant.eack == eack:
                return _DUPLICATE
            if stage == force_stage:
                if last_evicted_id == occupant.record_id:
                    # About to evict the record we already evicted once:
                    # an eviction loop.  Self-destruct instead (paper §3.2).
                    return _CYCLE
                slots[index] = new_row(PtRecord,
                                       record[:8] + (occupant.record_id,))
                return new_row(InsertOutcome, (_EVICTING, occupant))
        return _UNPLACED

    def match_ack(self, flow: FlowKey, ack: int) -> Optional[PtRecord]:
        """Find-and-delete the record acknowledged by ``ack``.

        Matching uses the constrained 4-byte signature, so a signature
        collision between distinct flows can (rarely) yield a mismatched
        sample — faithfully reproducing the hardware (paper §4).
        """
        signature = flow._sig or flow.signature  # cached after a first use
        crc = crc32(pack2_u32(signature, ack))
        size = self._stage_slots
        for stage, slots in enumerate(self._stages):
            x = crc ^ _STAGE_SALTS[stage]  # the stage index, as in insert
            x ^= x >> 16
            x = (x * 0x85EBCA6B) & 0xFFFFFFFF
            x ^= x >> 13
            x = (x * 0xC2B2AE35) & 0xFFFFFFFF
            index = (x ^ (x >> 16)) % size
            occupant = slots[index]
            if (occupant is not None and occupant.signature == signature
                    and occupant.eack == ack):
                slots[index] = None
                self._occupied -= 1
                return occupant
        return None

    def discard_flow(self, flow: FlowKey) -> int:
        """Drop all records whose signature matches ``flow`` (helper)."""
        signature = flow.signature
        dropped = 0
        for stage in self._stages:
            for index, occupant in enumerate(stage):
                if occupant is not None and occupant.signature == signature:
                    stage[index] = None
                    dropped += 1
        self._occupied -= dropped
        return dropped

    def occupancy(self) -> int:
        return self._occupied

    def records(self) -> List[PtRecord]:
        """All live records (introspection for tests and examples)."""
        return [
            slot for stage in self._stages for slot in stage if slot is not None
        ]

    def __reduce__(self):
        # Rows of the occupied slots in (stage, index) order, each naming
        # its flow by number in a first-seen list of 4-tuples: no
        # PtRecord or FlowKey object graph is walked.
        flows: Dict[FlowKey, int] = {}
        rows = []
        for stage, slots in enumerate(self._stages):
            for index in compress(range(len(slots)), slots):
                r = slots[index]
                rows.append((stage, index, r.record_id,
                             flows.setdefault(r.flow, len(flows)),
                             r.signature, r.eack, r.timestamp_ns, r.handshake,
                             r.leg, r.recirc_count, r.last_evicted_id))
        flow_rows = [(f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.ipv6)
                     for f in flows]
        return _rebuild_packet_table, (self._stage_count, self._stage_slots,
                                       flow_rows, rows)


def _rebuild_packet_table(stages: int, stage_slots: int, flows,
                          rows) -> StagedPacketTable:
    """Unpickle a :class:`StagedPacketTable` with re-interned flows,
    refusing any row whose slot is out of range or not after the last,
    or whose flow number is out of range."""
    table = StagedPacketTable(stages * stage_slots, stages)
    keys = [intern_flow(*flow) for flow in flows]
    previous = (0, -1)
    for (stage, index, record_id, flow_no, signature, eack, timestamp_ns,
         handshake, leg, recirc_count, last_evicted_id) in rows:
        if not (previous < (stage, index) and stage < stages
                and 0 <= index < stage_slots and 0 <= flow_no < len(keys)):
            raise ValueError(f"PT row ({stage}, {index}, flow {flow_no}) "
                             "out of order or range")
        table._stages[stage][index] = new_row(PtRecord, (
            record_id, keys[flow_no], signature, eack, timestamp_ns,
            handshake, leg, recirc_count, last_evicted_id))
        previous = (stage, index)
    table._occupied = len(rows)
    return table


def make_packet_table(total_slots: Optional[int], stages: int = 1):
    """Build the PT backend matching a :class:`~repro.core.config.DartConfig`."""
    if total_slots is None:
        return AssociativePacketTable()
    return StagedPacketTable(total_slots, stages)

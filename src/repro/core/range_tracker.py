"""The Range Tracker (RT) table — paper §3.1.

The RT stores, per tracked flow, a single *measurement range*
``[left, right]`` of sequence numbers that can still produce unambiguous
RTT samples:

* ``left`` — the latest byte ACKed by the receiver, or the highest byte
  affected by a retransmission/reordering ambiguity (whichever is later);
* ``right`` — the latest byte transmitted by the sender.

Data packets are only handed to the Packet Tracker when they extend the
range in sequence; retransmissions and duplicate ACKs *collapse* the
range (``left = right``), declaring everything in flight ambiguous.
When the sender skips ahead (a hole in sequence space), only the highest
contiguous byte-range ahead of the hole is kept (constant space,
paper Fig 4d).

Two backends implement the same semantics:

* :class:`AssociativeRangeTable` — unlimited, fully associative (dict),
  used by the §6.1 "Dart without memory constraints" experiments;
* :class:`HashedRangeTable` — a fixed-size one-way-associative register
  array indexed by a hash of the flow key, storing only the 4-byte flow
  signature (paper §4), so distinct flows can collide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .flow import FlowKey
from .seqspace import SEQ_MASK, SEQ_SPACE, seq_gt, seq_le, seq_lt, seq_sub

_HALF = SEQ_SPACE >> 1


class SeqVerdict(enum.Enum):
    """Outcome of processing a data (SEQ) packet against the RT.

    ``trackable`` is True when the packet should be inserted into the PT.
    """

    TRACK = "track"                    # in-order new data: track in PT
    TRACK_AFTER_HOLE = "track-hole"    # new data ahead of a hole: track
    NEW_FLOW = "new-flow"              # first packet of a flow: track
    RETRANSMISSION = "retransmission"  # eACK inside range: collapse, skip
    OVERLAP = "overlap"                # partial retransmission: collapse, skip
    WRAPAROUND = "wraparound"          # 2**32 wrap: reset left edge, skip
    TABLE_FULL = "table-full"          # no RT slot available: skip
    IGNORED_SYN = "ignored-syn"        # SYN/SYN-ACK in -SYN mode: skip

    def __init__(self, label: str) -> None:
        self.trackable = label in ("track", "track-hole", "new-flow")

    # Verdicts key the per-packet count dicts.  Enum.__hash__ is a Python
    # frame per lookup; members are singletons, so identity hashes them
    # just as well, in C.
    __hash__ = object.__hash__


class AckVerdict(enum.Enum):
    """Outcome of processing an ACK packet against the RT."""

    VALID = "valid"          # left < ack <= right: may match a PT entry
    DUPLICATE = "duplicate"  # ack == left: reordering inferred, collapse
    OLD = "old"              # ack < left: already-ambiguous bytes, ignore
    OPTIMISTIC = "optimistic"  # ack > right: early ACK, ignore
    NO_FLOW = "no-flow"      # flow not tracked

    __hash__ = object.__hash__  # see SeqVerdict


@dataclass(slots=True)
class RangeEntry:
    """One flow's measurement range: the RT record's three registers
    (signature, left, right) and the last-access stamp the §7 timeout
    reads."""

    signature: int
    left: int
    right: int
    touched_ns: int = 0

    @property
    def collapsed(self) -> bool:
        """True when the range is empty (nothing trackable in flight)."""
        return self.left == self.right


@dataclass(slots=True)
class RangeTrackerStats:
    """What the RT decides that no verdict carries alone: collapses by
    cause (paper §3.1 suggests their frequency as a congestion signal),
    overwrites of a collapsed flow's slot, and §7 timeout expiries.
    Per-verdict counts live in :class:`~repro.core.pipeline.DartStats`."""

    retransmission_collapses: int = 0
    duplicate_ack_collapses: int = 0
    overlap_collapses: int = 0
    flow_overwrites: int = 0
    timeout_expiries: int = 0

    @property
    def total_collapses(self) -> int:
        return (
            self.retransmission_collapses
            + self.duplicate_ack_collapses
            + self.overlap_collapses
        )


class AssociativeRangeTable:
    """Unlimited fully-associative RT backend (dict keyed by flow)."""

    def __init__(self) -> None:
        self._entries: Dict[FlowKey, RangeEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, flow: FlowKey) -> Optional[RangeEntry]:
        return self._entries.get(flow)

    def insert(self, flow: FlowKey, entry: RangeEntry) -> Tuple[bool, bool]:
        """Store ``entry``; returns ``(inserted, overwrote_other_flow)``.

        The associative backend never runs out of room.
        """
        self._entries[flow] = entry
        return True, False

    def delete(self, flow: FlowKey) -> None:
        self._entries.pop(flow, None)

    def purge_expired(self, flow: FlowKey, now_ns: int,
                      timeout_ns: int) -> bool:
        """Drop the flow's entry if it has expired (dict backend: only
        the exact flow can occupy 'its slot')."""
        entry = self._entries.get(flow)
        if entry is not None and now_ns - entry.touched_ns > timeout_ns:
            del self._entries[flow]
            return True
        return False

    def occupancy(self) -> int:
        return len(self._entries)


class HashedRangeTable:
    """Fixed-size one-way-associative RT backend (hash-indexed array).

    A slot stores only the 4-byte flow signature; a lookup whose slot
    holds a different signature is a miss, and an insert into an occupied
    slot succeeds only when the occupant's range has collapsed (paper
    §3.1: collapsed entries "can be safely deleted or overwritten") and
    the policy allows it.
    """

    def __init__(self, slots: int, *, overwrite_collapsed: bool = True) -> None:
        if slots <= 0:
            raise ValueError("RT must have at least one slot")
        self._slots: list = [None] * slots
        self._size = slots
        self._overwrite_collapsed = overwrite_collapsed
        # The occupied slot indices, changed only at None<->entry
        # transitions: occupancy() is their count, and a checkpoint
        # writes these slots alone instead of walking all 2^18.
        self._occupied: set = set()

    def __len__(self) -> int:
        return self._size

    def _index(self, flow: FlowKey) -> int:
        # stage 0 with the flow's cached stage-0 mix: identical to
        # stage_index(flow.key_bytes(), 0, size) without re-walking the
        # key bytes — or re-running the avalanche mix — on any lookup.
        return flow.mix0 % self._size

    def lookup(self, flow: FlowKey) -> Optional[RangeEntry]:
        # The flow's cached stage-0 mix and signature, read off their
        # slots: each property is a Python frame, on every RT access.
        # They are empty only until the flow's first lookup.
        mix = flow._mix0
        signature = flow._sig
        if mix is None or signature is None:
            mix = flow.mix0
            signature = flow.signature
        entry = self._slots[mix % self._size]
        if entry is not None and entry.signature == signature:
            return entry
        return None

    def insert(self, flow: FlowKey, entry: RangeEntry) -> Tuple[bool, bool]:
        """Try to store ``entry``; returns ``(inserted, overwrote)``."""
        index = self._index(flow)
        occupant = self._slots[index]
        if occupant is None or occupant.signature == entry.signature:
            if occupant is None:
                self._occupied.add(index)
            self._slots[index] = entry
            return True, False
        if self._overwrite_collapsed and occupant.collapsed:
            self._slots[index] = entry
            return True, True
        return False, False

    def delete(self, flow: FlowKey) -> None:
        index = self._index(flow)
        occupant = self._slots[index]
        if occupant is not None and occupant.signature == flow.signature:
            self._slots[index] = None
            self._occupied.discard(index)

    def purge_expired(self, flow: FlowKey, now_ns: int,
                      timeout_ns: int) -> bool:
        """Drop whatever occupies the flow's slot if it has expired.

        Unlike :meth:`delete`, this ignores the signature: an expired
        entry of *any* flow frees the slot for the newcomer (the whole
        point of the §7 timeout mitigation).
        """
        index = self._index(flow)
        occupant = self._slots[index]
        if occupant is not None and now_ns - occupant.touched_ns > timeout_ns:
            self._slots[index] = None
            self._occupied.discard(index)
            return True
        return False

    def occupancy(self) -> int:
        return len(self._occupied)

    def __reduce__(self):
        # Rows of the occupied slots in index order: a checkpoint's size
        # and write time follow the live flows, not the table size.
        rows = []
        for index in sorted(self._occupied):
            e = self._slots[index]
            rows.append((index, e.signature, e.left, e.right, e.touched_ns))
        return _rebuild_range_table, (self._size, self._overwrite_collapsed,
                                      rows)


def _rebuild_range_table(size: int, overwrite_collapsed: bool,
                         rows) -> HashedRangeTable:
    """Unpickle a :class:`HashedRangeTable`, refusing any row whose index
    is out of range or not above the last (a negative one would wrap)."""
    table = HashedRangeTable(size, overwrite_collapsed=overwrite_collapsed)
    previous = -1
    for index, signature, left, right, touched_ns in rows:
        if not previous < index < size:
            raise ValueError(f"RT row index {index} out of order or range")
        table._slots[index] = RangeEntry(signature, left, right, touched_ns)
        table._occupied.add(index)
        previous = index
    return table


class RangeTracker:
    """The Range Tracker: decides which packets are worth tracking.

    All sequence arithmetic is modulo 2**32.  ``handle_wraparound``
    selects the paper's §4 behaviour (reset the left edge to zero when a
    segment crosses the wrap point, forgoing top-of-space samples).
    """

    def __init__(
        self,
        slots: Optional[int] = None,
        *,
        overwrite_collapsed: bool = True,
        handle_wraparound: bool = True,
        timeout_ns: Optional[int] = None,
    ) -> None:
        if slots is None:
            self._table = AssociativeRangeTable()
        else:
            self._table = HashedRangeTable(
                slots, overwrite_collapsed=overwrite_collapsed
            )
        self._handle_wraparound = handle_wraparound
        # §7 mitigation: a very large timeout reclaims RT entries pinned
        # by attacks that leave data unacknowledged forever.  None (the
        # paper's deployed configuration) disables it.
        self._timeout_ns = timeout_ns
        self.stats = RangeTrackerStats()

    def _live_entry(self, flow: FlowKey, now_ns: int) -> Optional[RangeEntry]:
        """Lookup with timeout semantics: expired entries vanish.

        Only for a tracker with a timeout configured; without one the
        methods below go straight to the table.  The purge also fires
        when the expired occupant belongs to a *different* flow sharing
        the slot, so a dead entry cannot pin a slot against newcomers
        forever (paper §7).
        """
        if self._table.purge_expired(flow, now_ns, self._timeout_ns):
            self.stats.timeout_expiries += 1
        return self._table.lookup(flow)

    # -- SEQ path ---------------------------------------------------------

    def on_data(self, flow: FlowKey, seq: int, eack: int,
                now_ns: int = 0) -> SeqVerdict:
        """Process a data packet; returns whether to track it in the PT.

        ``eack`` is the expected ACK (``seq`` plus consumed sequence
        space); callers guarantee ``eack != seq``.  ``now_ns`` only
        matters when an RT timeout is configured.
        """
        entry = (self._table.lookup(flow) if self._timeout_ns is None
                 else self._live_entry(flow, now_ns))

        if entry is None:
            entry = RangeEntry(signature=flow.signature, left=seq,
                               right=eack, touched_ns=now_ns)
            inserted, overwrote = self._table.insert(flow, entry)
            if not inserted:
                return SeqVerdict.TABLE_FULL
            if overwrote:
                self.stats.flow_overwrites += 1
            return SeqVerdict.NEW_FLOW

        entry.touched_ns = now_ns

        if seq == entry.right and 0 < eack - seq <= _HALF:
            # In-order new data, the common case, decided first with
            # plain integers: eack > seq means the segment's end did not
            # wrap, and a step of at most half the space past ``right``
            # is never "before or at" it, so neither rule below can fire.
            entry.right = eack
            return SeqVerdict.TRACK

        if self._handle_wraparound and seq_sub(eack, seq) != eack - seq:
            # The segment crosses the 2**32 boundary (its end wrapped).
            entry.left = 0
            entry.right = eack
            return SeqVerdict.WRAPAROUND

        if seq_le(eack, entry.right):
            # Every byte was transmitted before: a retransmission. Any
            # future ACK for in-flight bytes is ambiguous -> collapse.
            entry.left = entry.right
            self.stats.retransmission_collapses += 1
            return SeqVerdict.RETRANSMISSION

        if seq == entry.right:
            # In-order new data: extend the right edge.
            entry.right = eack
            return SeqVerdict.TRACK

        if seq_gt(seq, entry.right):
            # The sender skipped ahead (we missed one or more packets).
            # Keep only the highest contiguous range (paper Fig 4d).
            entry.left = seq
            entry.right = eack
            return SeqVerdict.TRACK_AFTER_HOLE

        # seq < right < eack: the segment partially overlaps bytes already
        # in flight (e.g. a coalesced retransmission).  Everything through
        # eack is ambiguous -> collapse at the new right edge.
        entry.left = eack
        entry.right = eack
        self.stats.overlap_collapses += 1
        return SeqVerdict.OVERLAP

    # -- ACK path ---------------------------------------------------------

    def on_ack(self, flow: FlowKey, ack: int, now_ns: int = 0) -> AckVerdict:
        """Process an ACK for the given SEQ-direction flow.

        On a VALID verdict the caller should look up ``(flow, ack)`` in
        the PT *before* this method has advanced the left edge — hence the
        two-phase API: :meth:`on_ack` classifies and updates state, and
        the sample lookup uses the returned verdict.  (The left-edge
        advance does not affect the PT lookup for this same ack number,
        so a single call is safe.)
        """
        entry = (self._table.lookup(flow) if self._timeout_ns is None
                 else self._live_entry(flow, now_ns))
        if entry is None:
            return AckVerdict.NO_FLOW
        entry.touched_ns = now_ns
        left = entry.left
        right = entry.right

        if ack == left:
            # Duplicate ACK: explicit marker of loss or reordering.  ACKs
            # have been held up at the receiver, inflating future RTTs ->
            # collapse the whole range.  (A duplicate ACK against an
            # already-collapsed range is a no-op and not counted.)
            if left != right:
                entry.left = right
                self.stats.duplicate_ack_collapses += 1
            return AckVerdict.DUPLICATE

        # seq_between(left, ack, right), inline: ack != left is settled,
        # and a collapsed range spans 0, which no other ack is within.
        if (ack - left) & SEQ_MASK <= (right - left) & SEQ_MASK:
            entry.left = ack
            return AckVerdict.VALID

        if seq_lt(ack, left):
            return AckVerdict.OLD
        return AckVerdict.OPTIMISTIC

    # -- Recirculation support ---------------------------------------------

    def revalidate(self, flow: FlowKey, eack: int, now_ns: int = 0) -> bool:
        """Second-chance check for an evicted PT record (paper §3.2).

        A record is still worth keeping only if its flow is still tracked
        and its expected ACK lies inside the current measurement range.
        """
        entry = (self._table.lookup(flow) if self._timeout_ns is None
                 else self._live_entry(flow, now_ns))
        if entry is None:
            return False
        left = entry.left  # seq_between(left, eack, right), inline
        return (eack != left and
                (eack - left) & SEQ_MASK <= (entry.right - left) & SEQ_MASK)

    # -- Introspection ------------------------------------------------------

    def lookup(self, flow: FlowKey) -> Optional[RangeEntry]:
        """Current measurement range for a flow (None if untracked)."""
        return self._table.lookup(flow)

    def delete(self, flow: FlowKey) -> None:
        """Remove a flow's entry (used by operators and tests)."""
        self._table.delete(flow)

    def occupancy(self) -> int:
        """Number of occupied RT slots."""
        return self._table.occupancy()

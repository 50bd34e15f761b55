"""Tests for the Range Tracker (paper §3.1 semantics)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import seqspace
from repro.core.flow import FlowKey
from repro.core.range_tracker import (
    AckVerdict,
    AssociativeRangeTable,
    HashedRangeTable,
    RangeEntry,
    RangeTracker,
    RangeTrackerStats,
    SeqVerdict,
)
from repro.core.seqspace import SEQ_MASK

FLOW = FlowKey(src_ip=0x0A000001, dst_ip=0x10000002, src_port=40000,
               dst_port=443)


def tracked(tracker=None):
    """A tracker with FLOW at range [1000, 2000]."""
    tracker = tracker or RangeTracker()
    verdict = tracker.on_data(FLOW, 1000, 2000)
    assert verdict is SeqVerdict.NEW_FLOW
    return tracker


class TestNormalOperation:
    def test_new_flow_tracked(self):
        tracker = RangeTracker()
        assert tracker.on_data(FLOW, 1000, 2000).trackable
        entry = tracker.lookup(FLOW)
        assert (entry.left, entry.right) == (1000, 2000)

    def test_in_order_growth(self):
        tracker = tracked()
        assert tracker.on_data(FLOW, 2000, 3000) is SeqVerdict.TRACK
        entry = tracker.lookup(FLOW)
        assert (entry.left, entry.right) == (1000, 3000)

    def test_valid_ack_advances_left(self):
        tracker = tracked()
        assert tracker.on_ack(FLOW, 1500) is AckVerdict.VALID
        assert tracker.lookup(FLOW).left == 1500

    def test_ack_to_right_edge_valid(self):
        tracker = tracked()
        assert tracker.on_ack(FLOW, 2000) is AckVerdict.VALID
        assert tracker.lookup(FLOW).left == 2000

    def test_unknown_flow_ack(self):
        tracker = RangeTracker()
        assert tracker.on_ack(FLOW, 500) is AckVerdict.NO_FLOW


class TestAmbiguities:
    def test_retransmission_collapses(self):
        tracker = tracked()
        verdict = tracker.on_data(FLOW, 1000, 1500)  # eACK inside range
        assert verdict is SeqVerdict.RETRANSMISSION
        entry = tracker.lookup(FLOW)
        assert entry.collapsed
        assert entry.left == entry.right == 2000

    def test_duplicate_ack_collapses(self):
        tracker = tracked()
        verdict = tracker.on_ack(FLOW, 1000)  # equals the left edge
        assert verdict is AckVerdict.DUPLICATE
        assert tracker.lookup(FLOW).collapsed

    def test_duplicate_ack_on_collapsed_range_not_counted(self):
        tracker = tracked()
        tracker.on_ack(FLOW, 1000)
        collapses = tracker.stats.duplicate_ack_collapses
        tracker.on_ack(FLOW, 2000)  # left == right == 2000 now
        assert tracker.stats.duplicate_ack_collapses == collapses

    def test_old_ack_ignored(self):
        tracker = tracked()
        tracker.on_ack(FLOW, 1500)
        assert tracker.on_ack(FLOW, 1200) is AckVerdict.OLD
        assert tracker.lookup(FLOW).left == 1500

    def test_optimistic_ack_ignored(self):
        tracker = tracked()
        assert tracker.on_ack(FLOW, 2500) is AckVerdict.OPTIMISTIC
        assert tracker.lookup(FLOW).left == 1000  # unchanged

    def test_overlap_collapses_at_new_right(self):
        tracker = tracked()
        verdict = tracker.on_data(FLOW, 1500, 2500)  # spans the right edge
        assert verdict is SeqVerdict.OVERLAP
        entry = tracker.lookup(FLOW)
        assert entry.left == entry.right == 2500

    def test_growth_resumes_after_collapse(self):
        tracker = tracked()
        tracker.on_data(FLOW, 1000, 1500)  # collapse at 2000
        assert tracker.on_data(FLOW, 2000, 3000) is SeqVerdict.TRACK
        entry = tracker.lookup(FLOW)
        assert (entry.left, entry.right) == (2000, 3000)


class TestHoles:
    def test_hole_keeps_highest_range(self):
        tracker = tracked()
        verdict = tracker.on_data(FLOW, 2500, 3000)  # skipped 2000..2500
        assert verdict is SeqVerdict.TRACK_AFTER_HOLE
        entry = tracker.lookup(FLOW)
        assert (entry.left, entry.right) == (2500, 3000)

    def test_ack_below_hole_ignored(self):
        tracker = tracked()
        tracker.on_data(FLOW, 2500, 3000)
        assert tracker.on_ack(FLOW, 2000) is AckVerdict.OLD

    def test_late_hole_fill_is_retransmission(self):
        tracker = tracked()
        tracker.on_data(FLOW, 2500, 3000)
        # The reordered packet that fills 2000..2500 arrives late.
        assert tracker.on_data(FLOW, 2000, 2500) is SeqVerdict.RETRANSMISSION
        assert tracker.lookup(FLOW).collapsed


class TestWraparound:
    def test_wrap_resets_left_edge(self):
        tracker = RangeTracker()
        start = SEQ_MASK - 999  # 1000 bytes below the wrap point
        tracker.on_data(FLOW, start, (start + 1000) & SEQ_MASK)
        tracker.on_data(FLOW, 0, 500)
        # The previous segment ended exactly at the wrap; the next one
        # starts at zero.  Feed a segment that itself wraps:
        tracker2 = RangeTracker()
        tracker2.on_data(FLOW, SEQ_MASK - 999, (SEQ_MASK + 1 - 1000 + 600) & SEQ_MASK)
        wrap_verdict = tracker2.on_data(
            FLOW, (SEQ_MASK - 399) & SEQ_MASK, 200
        )
        assert wrap_verdict is SeqVerdict.WRAPAROUND
        entry = tracker2.lookup(FLOW)
        assert entry.left == 0
        assert entry.right == 200

    def test_wrap_disabled_for_ablation(self):
        tracker = RangeTracker(handle_wraparound=False)
        tracker.on_data(FLOW, SEQ_MASK - 999, (SEQ_MASK - 999 + 1000) & SEQ_MASK)
        verdict = tracker.on_data(FLOW, (SEQ_MASK - 399) & SEQ_MASK, 200)
        assert verdict is not SeqVerdict.WRAPAROUND

    def test_pre_wrap_entries_become_stale_after_reset(self):
        tracker = RangeTracker()
        high = SEQ_MASK - 2000
        tracker.on_data(FLOW, high, high + 1000)
        assert tracker.revalidate(FLOW, high + 500)
        # A wrapping segment resets the range to [0, eack].
        tracker.on_data(FLOW, SEQ_MASK - 100, 400)
        assert not tracker.revalidate(FLOW, high + 500)


class TestRevalidation:
    def test_valid_inside_range(self):
        tracker = tracked()
        assert tracker.revalidate(FLOW, 1500)
        assert tracker.revalidate(FLOW, 2000)

    def test_stale_outside_range(self):
        tracker = tracked()
        assert not tracker.revalidate(FLOW, 1000)  # left edge excluded
        assert not tracker.revalidate(FLOW, 2500)

    def test_stale_after_collapse(self):
        tracker = tracked()
        tracker.on_data(FLOW, 1000, 1500)  # collapse
        assert not tracker.revalidate(FLOW, 1800)

    def test_stale_for_unknown_flow(self):
        assert not RangeTracker().revalidate(FLOW, 1500)

    def test_stale_after_left_advance(self):
        tracker = tracked()
        tracker.on_ack(FLOW, 1600)
        assert not tracker.revalidate(FLOW, 1500)


class TestHashedBackend:
    def test_lookup_miss_on_signature_mismatch(self):
        table = HashedRangeTable(1)  # everything collides
        other = FlowKey(src_ip=9, dst_ip=8, src_port=7, dst_port=6)
        table.insert(FLOW, RangeEntry(FLOW.signature, 0, 10))
        assert table.lookup(other) is None

    def test_occupied_slot_not_overwritten_when_open(self):
        table = HashedRangeTable(1)
        table.insert(FLOW, RangeEntry(FLOW.signature, 0, 10))
        other = FlowKey(src_ip=9, dst_ip=8, src_port=7, dst_port=6)
        inserted, overwrote = table.insert(
            other, RangeEntry(other.signature, 5, 6)
        )
        assert not inserted and not overwrote

    def test_collapsed_slot_overwritten(self):
        table = HashedRangeTable(1)
        table.insert(FLOW, RangeEntry(FLOW.signature, 10, 10))  # collapsed
        other = FlowKey(src_ip=9, dst_ip=8, src_port=7, dst_port=6)
        inserted, overwrote = table.insert(
            other, RangeEntry(other.signature, 5, 6)
        )
        assert inserted and overwrote

    def test_overwrite_policy_can_be_disabled(self):
        table = HashedRangeTable(1, overwrite_collapsed=False)
        table.insert(FLOW, RangeEntry(FLOW.signature, 10, 10))
        other = FlowKey(src_ip=9, dst_ip=8, src_port=7, dst_port=6)
        inserted, _ = table.insert(other, RangeEntry(other.signature, 5, 6))
        assert not inserted

    def test_table_full_verdict_surfaces(self):
        tracker = RangeTracker(slots=1, overwrite_collapsed=False)
        tracker.on_data(FLOW, 1000, 2000)
        other = FlowKey(src_ip=9, dst_ip=8, src_port=7, dst_port=6)
        assert tracker.on_data(other, 0, 100) is SeqVerdict.TABLE_FULL
        assert tracker.lookup(FLOW) is not None  # the occupant stays

    def test_delete(self):
        table = HashedRangeTable(4)
        table.insert(FLOW, RangeEntry(FLOW.signature, 0, 10))
        table.delete(FLOW)
        assert table.lookup(FLOW) is None
        assert table.occupancy() == 0

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            HashedRangeTable(0)


class TestAssociativeBackend:
    def test_never_full(self):
        table = AssociativeRangeTable()
        for i in range(100):
            key = FlowKey(src_ip=i, dst_ip=0, src_port=0, dst_port=0)
            inserted, _ = table.insert(key, RangeEntry(key.signature, 0, 1))
            assert inserted
        assert table.occupancy() == 100


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["data", "ack"]),
                st.integers(min_value=0, max_value=5000),
                st.integers(min_value=1, max_value=1460),
            ),
            max_size=60,
        )
    )
    def test_left_never_passes_right(self, events):
        tracker = RangeTracker()
        for kind, a, b in events:
            if kind == "data":
                tracker.on_data(FLOW, a, a + b)
            else:
                tracker.on_ack(FLOW, a)
            entry = tracker.lookup(FLOW)
            if entry is not None:
                from repro.core.seqspace import seq_le
                assert seq_le(entry.left, entry.right)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=40))
    def test_monotone_acks_never_collapse(self, acks):
        tracker = RangeTracker()
        tracker.on_data(FLOW, 0, 20_001)
        last = 0
        for ack in sorted(set(acks)):
            if ack <= last or ack > 20_001:
                continue
            assert tracker.on_ack(FLOW, ack) is AckVerdict.VALID
            last = ack


# -- The inlined arithmetic against the spelled-out rules ---------------------

HALF = 1 << 31


class ReferenceRangeTracker:
    """The §3.1 rules in their documented order, every comparison a
    ``seqspace`` helper: the model ``RangeTracker``'s inline mod-2**32
    arithmetic (and its in-order test that runs first) must agree with.
    Storage is a backend table of its own."""

    def __init__(self, table, *, handle_wraparound, timeout_ns):
        self.table = table
        self.handle_wraparound = handle_wraparound
        self.timeout_ns = timeout_ns
        self.stats = RangeTrackerStats()

    def _live_entry(self, flow, now_ns):
        if self.timeout_ns is not None and self.table.purge_expired(
                flow, now_ns, self.timeout_ns):
            self.stats.timeout_expiries += 1
        return self.table.lookup(flow)

    def on_data(self, flow, seq, eack, now_ns):
        stats = self.stats
        entry = self._live_entry(flow, now_ns)
        if entry is None:
            inserted, overwrote = self.table.insert(flow, RangeEntry(
                signature=flow.signature, left=seq, right=eack,
                touched_ns=now_ns))
            if not inserted:
                return SeqVerdict.TABLE_FULL
            stats.flow_overwrites += overwrote
            return SeqVerdict.NEW_FLOW
        entry.touched_ns = now_ns
        if (self.handle_wraparound
                and seqspace.seq_sub(eack, seq) != eack - seq):
            entry.left, entry.right = 0, eack
            return SeqVerdict.WRAPAROUND
        if seqspace.seq_le(eack, entry.right):
            entry.left = entry.right
            stats.retransmission_collapses += 1
            return SeqVerdict.RETRANSMISSION
        if seq == entry.right:
            entry.right = eack
            return SeqVerdict.TRACK
        if seqspace.seq_gt(seq, entry.right):
            entry.left, entry.right = seq, eack
            return SeqVerdict.TRACK_AFTER_HOLE
        entry.left = entry.right = eack
        stats.overlap_collapses += 1
        return SeqVerdict.OVERLAP

    def on_ack(self, flow, ack, now_ns):
        entry = self._live_entry(flow, now_ns)
        if entry is None:
            return AckVerdict.NO_FLOW
        entry.touched_ns = now_ns
        if ack == entry.left:
            if not entry.collapsed:
                entry.left = entry.right
                self.stats.duplicate_ack_collapses += 1
            return AckVerdict.DUPLICATE
        if seqspace.seq_between(entry.left, ack, entry.right):
            entry.left = ack
            return AckVerdict.VALID
        if seqspace.seq_lt(ack, entry.left):
            return AckVerdict.OLD
        return AckVerdict.OPTIMISTIC

    def revalidate(self, flow, eack, now_ns):
        entry = self._live_entry(flow, now_ns)
        return entry is not None and seqspace.seq_between(
            entry.left, eack, entry.right)


#: Sequence numbers where the arithmetic can go wrong: either side of 0,
#: of the half-space point and of the wrap, or relative to the flow's
#: live edges (resolved when the event runs).
anchors = st.sampled_from(["zero", "half", "top", "left", "left",
                           "right", "right", "right"])
offsets = st.one_of(st.just(0), st.integers(-2, 2), st.integers(-3000, 3000))
#: 0 < len <= 2**31 is a legal forward step; beyond it the end is "before"
#: the start in circular order.
lengths = st.one_of(
    st.integers(1, 3000),
    st.integers(HALF - 1, HALF + 1),
    st.integers((1 << 32) - 3000, (1 << 32) - 1),
)
events = st.lists(
    st.tuples(st.sampled_from(["data", "data", "ack", "ack", "revalidate"]),
              st.sampled_from([0, 0, 0, 1, 2]), anchors, offsets, lengths,
              st.integers(0, 40)),
    max_size=60,
)


class TestInlineArithmeticAgainstTheRules:
    @settings(max_examples=400, deadline=None)
    @given(events=events, hashed=st.booleans(), wraparound=st.booleans(),
           timeout_ns=st.sampled_from([None, 60]))
    # The edges of the in-order test: a step of exactly half the space
    # still extends the range, one byte more is a retransmission, and a
    # segment whose end wraps is in order only with the reset off.
    @example(events=[("data", 0, "zero", 10, 10, 0),
                     ("data", 0, "right", 0, HALF + 1, 0),
                     ("data", 0, "right", 0, HALF, 0)],
             hashed=False, wraparound=True, timeout_ns=None)
    @example(events=[("data", 0, "top", -10, 5, 0),
                     ("data", 0, "right", 0, 100, 0),
                     ("ack", 0, "right", 0, 1, 0),
                     ("ack", 0, "left", 0, 1, 0)],
             hashed=True, wraparound=False, timeout_ns=None)
    def test_same_verdicts_ranges_and_stats(self, events, hashed, wraparound,
                                            timeout_ns):
        # Fresh keys: their hash caches start empty, as on a first packet.
        flows = [FlowKey(src_ip=0x0A000001 + i, dst_ip=0x10000002,
                         src_port=40000, dst_port=443) for i in range(3)]
        # Two slots for three flows: shared slots, full table, overwrites.
        tracker = RangeTracker(2 if hashed else None,
                               handle_wraparound=wraparound,
                               timeout_ns=timeout_ns)
        model = ReferenceRangeTracker(
            HashedRangeTable(2) if hashed else AssociativeRangeTable(),
            handle_wraparound=wraparound, timeout_ns=timeout_ns)
        now_ns = 0
        for kind, which, anchor, offset, length, dt in events:
            flow = flows[which]
            now_ns += dt
            entry = model.table.lookup(flow)
            base = {"zero": 0, "half": HALF, "top": SEQ_MASK,
                    "left": entry.left if entry else 0,
                    "right": entry.right if entry else 0}[anchor]
            value = (base + offset) & SEQ_MASK
            if kind == "data":
                eack = (value + length) & SEQ_MASK
                got = tracker.on_data(flow, value, eack, now_ns)
                want = model.on_data(flow, value, eack, now_ns)
            elif kind == "ack":
                got = tracker.on_ack(flow, value, now_ns)
                want = model.on_ack(flow, value, now_ns)
            else:
                got = tracker.revalidate(flow, value, now_ns)
                want = model.revalidate(flow, value, now_ns)
            assert got is want, (kind, value, length)
            for each in flows:
                assert tracker.lookup(each) == model.table.lookup(each)
            assert tracker.stats == model.stats
            assert tracker.occupancy() == model.table.occupancy()

"""Tests for the Packet Tracker tables (paper §3.2 mechanics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import FlowKey
from repro.core.hashing import pack_u32, stage_index
from repro.core.packet_tracker import (
    AssociativePacketTable,
    InsertStatus,
    PtRecord,
    StagedPacketTable,
    make_packet_table,
)


def flow(i=0):
    return FlowKey(src_ip=0x0A000000 + i, dst_ip=0x10000001, src_port=40000,
                   dst_port=443)


def record(record_id, f=None, eack=1000, ts=0, recircs=0):
    f = f or flow()
    return PtRecord(
        record_id=record_id,
        flow=f,
        signature=f.signature,
        eack=eack,
        timestamp_ns=ts,
        recirc_count=recircs,
    )


def colliding_records(table, n, *, base_flow_index=0, stage=0):
    """Records for distinct flows that share a slot in the given stage."""
    from repro.core.hashing import stage_index

    out = []
    target = None
    i = base_flow_index
    rid = 1000
    while len(out) < n:
        f = flow(i)
        r = record(rid, f, eack=7777)
        idx = stage_index(pack_u32(r.signature, r.eack), stage,
                          table.stage_slots)
        if target is None:
            target = idx
            out.append(r)
        elif idx == target:
            out.append(r)
        i += 1
        rid += 1
    return out


class TestAssociative:
    def test_insert_and_match(self):
        table = AssociativePacketTable()
        table.insert(record(1, eack=500, ts=100))
        matched = table.match_ack(flow(), 500)
        assert matched is not None and matched.timestamp_ns == 100
        assert table.match_ack(flow(), 500) is None  # deleted on match

    def test_duplicate_keeps_older(self):
        table = AssociativePacketTable()
        table.insert(record(1, eack=500, ts=100))
        outcome = table.insert(record(2, eack=500, ts=200))
        assert outcome.status is InsertStatus.DUPLICATE
        assert table.match_ack(flow(), 500).timestamp_ns == 100

    def test_miss_counts(self):
        # A miss is a None the pipeline does not count as a sample.
        table = AssociativePacketTable()
        table.insert(record(1, eack=500))
        assert table.match_ack(flow(), 123) is None
        assert table.occupancy() == 1

    def test_discard_flow(self):
        table = AssociativePacketTable()
        table.insert(record(1, eack=500))
        table.insert(record(2, eack=600))
        table.insert(record(3, flow(5), eack=500))
        assert table.discard_flow(flow()) == 2
        assert table.occupancy() == 1


class TestStagedBasics:
    def test_insert_into_empty(self):
        table = StagedPacketTable(64, 1)
        assert table.insert(record(1)).status is InsertStatus.PLACED
        assert table.occupancy() == 1

    def test_match_deletes(self):
        table = StagedPacketTable(64, 1)
        table.insert(record(1, eack=900, ts=5))
        assert table.match_ack(flow(), 900).timestamp_ns == 5
        assert table.occupancy() == 0

    def test_match_requires_signature(self):
        table = StagedPacketTable(64, 1)
        table.insert(record(1, eack=900))
        assert table.match_ack(flow(3), 900) is None

    def test_duplicate_key_keeps_older(self):
        table = StagedPacketTable(64, 1)
        table.insert(record(1, eack=900, ts=5))
        outcome = table.insert(record(2, eack=900, ts=9))
        assert outcome.status is InsertStatus.DUPLICATE
        assert table.match_ack(flow(), 900).timestamp_ns == 5

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            StagedPacketTable(4, 0)
        with pytest.raises(ValueError):
            StagedPacketTable(2, 4)

    def test_factory(self):
        assert isinstance(make_packet_table(None), AssociativePacketTable)
        staged = make_packet_table(128, 4)
        assert isinstance(staged, StagedPacketTable)
        assert staged.stage_count == 4
        assert staged.stage_slots == 32


class TestSingleStageContention:
    def test_fresh_record_evicts_immediately(self):
        # Paper §3.2: in a single-stage PT the new entry always gets
        # inserted; the old one is evicted for recirculation.
        table = StagedPacketTable(8, 1)
        old, new = colliding_records(table, 2)
        table.insert(old)
        outcome = table.insert(new)
        assert outcome.status is InsertStatus.PLACED_EVICTING
        assert outcome.evicted is old
        # The slot holds the evictor, marked with the id it evicted.
        assert table.records() == [new._replace(last_evicted_id=old.record_id)]

    def test_cycle_detected_on_re_eviction(self):
        table = StagedPacketTable(8, 1)
        old, new = colliding_records(table, 2)
        table.insert(old)
        table.insert(new)          # new evicts old
        old = old._replace(recirc_count=1)  # old is recirculated, re-enters
        outcome = table.insert(old)  # old force-evicts new
        assert outcome.status is InsertStatus.PLACED_EVICTING
        assert outcome.evicted == new._replace(last_evicted_id=old.record_id)
        # new comes around again: it already evicted old once -> cycle.
        new = outcome.evicted._replace(recirc_count=1)
        assert table.insert(new).status is InsertStatus.CYCLE


class TestMultiStageContention:
    def test_fresh_uses_later_stage_empty_slot(self):
        table = StagedPacketTable(64, 2)
        a, b = colliding_records(table, 2, stage=0)
        assert table.insert(a).status is InsertStatus.PLACED
        # b collides with a in stage 0, but stage 1 is empty.
        assert table.insert(b).status is InsertStatus.PLACED
        assert table.occupancy() == 2

    def test_fresh_cannot_evict_in_multistage(self):
        # Fill both of a record's candidate slots with other records, then
        # verify a fresh colliding record goes UNPLACED (no eviction
        # rights on pass 0 in a multi-stage table).
        table = StagedPacketTable(4, 2)  # 2 slots per stage
        i = 0
        victim = None
        while True:
            f = flow(i)
            r = record(100 + i, f, eack=3333)
            outcome = table.insert(r)
            if outcome.status is InsertStatus.UNPLACED:
                victim = r
                break
            i += 1
            if i > 200:
                pytest.fail("table never filled")
        assert victim is not None
        assert victim not in table.records()

    def test_recirculated_record_force_evicts_rotating_stage(self):
        table = StagedPacketTable(4, 2)
        # Fill the table completely.
        i, filled = 0, []
        while table.occupancy() < 4:
            r = record(i, flow(i), eack=1111)
            if table.insert(r).status is InsertStatus.PLACED:
                filled.append(r)
            i += 1
        fresh = record(999, flow(i + 1), eack=1111)
        assert table.insert(fresh).status is InsertStatus.UNPLACED
        fresh = fresh._replace(recirc_count=1)  # pass 1: rights at stage 0
        outcome = table.insert(fresh)
        assert outcome.status is InsertStatus.PLACED_EVICTING
        # pass 2 -> eviction rights at stage 1
        fresh2 = record(1000, flow(i + 2), eack=2222, recircs=2)
        outcome2 = table.insert(fresh2)
        assert outcome2.status in (
            InsertStatus.PLACED_EVICTING,
            InsertStatus.PLACED,  # in case its stage-1 slot opened up
        )

    def test_lookup_scans_all_stages(self):
        table = StagedPacketTable(64, 4)
        records = [record(i, flow(i), eack=42) for i in range(10)]
        for r in records:
            table.insert(r)
        for r in records:
            assert table.match_ack(r.flow, 42) is not None

    def test_records_listing(self):
        table = StagedPacketTable(64, 2)
        table.insert(record(1))
        table.insert(record(2, flow(3), eack=5))
        assert len(table.records()) == 2

    def test_discard_flow_by_signature(self):
        table = StagedPacketTable(64, 2)
        table.insert(record(1, eack=100))
        table.insert(record(2, eack=200))
        assert table.discard_flow(flow()) == 2


# -- The flattened stage walk against the algorithm it replaced ---------------


class ReferenceStagedTable:
    """``StagedPacketTable`` as first written: a helper frame per step
    and an index per stage, kept here as the model the flattened
    ``insert``/``match_ack`` must agree with.  Returns
    ``(status, evicted)``."""

    def __init__(self, total_slots, stages):
        self.stage_count = stages
        self.stage_slots = total_slots // stages
        self.stages = [[None] * self.stage_slots for _ in range(stages)]

    def _index(self, key, stage):
        return stage_index(key, stage, self.stage_slots)

    def _force_stage(self, r):
        if r.recirc_count == 0:
            return 0 if self.stage_count == 1 else None
        return (r.recirc_count - 1) % self.stage_count

    def insert(self, r):
        force_stage = self._force_stage(r)
        for stage in range(self.stage_count):
            index = self._index(pack_u32(r.signature, r.eack), stage)
            occupant = self.stages[stage][index]
            if occupant is None:
                self.stages[stage][index] = r
                return InsertStatus.PLACED, None
            if (occupant.signature, occupant.eack) == (r.signature, r.eack):
                return InsertStatus.DUPLICATE, None
            if stage == force_stage:
                if r.last_evicted_id == occupant.record_id:
                    return InsertStatus.CYCLE, None
                self.stages[stage][index] = r._replace(
                    last_evicted_id=occupant.record_id)
                return InsertStatus.PLACED_EVICTING, occupant
        return InsertStatus.UNPLACED, None

    def match_ack(self, signature, ack):
        for stage in range(self.stage_count):
            index = self._index(pack_u32(signature, ack), stage)
            occupant = self.stages[stage][index]
            if occupant is not None and (
                    occupant.signature, occupant.eack) == (signature, ack):
                self.stages[stage][index] = None
                return occupant
        return None


def layout(stages):
    return [[slot and slot.record_id for slot in stage] for stage in stages]


class TestStageWalkAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        stages=st.integers(1, 4),
        slots_per_stage=st.integers(1, 3),
        events=st.lists(st.tuples(
            st.sampled_from(["insert", "insert", "match", "recirculate"]),
            st.integers(0, 5),     # flow
            st.integers(0, 5),     # signature donor: another flow collides
            st.integers(1, 4),     # eack / ack
            st.integers(0, 5),     # recirc_count of a fresh insert
        ), max_size=80),
    )
    def test_same_outcomes_layout_and_stats(self, stages, slots_per_stage,
                                            events):
        table = StagedPacketTable(stages * slots_per_stage, stages)
        model = ReferenceStagedTable(stages * slots_per_stage, stages)
        displaced = None  # the last evicted or unplaced record, to recirculate
        next_id = 0
        for kind, f, donor, eack, recircs in events:
            if kind == "match":
                got = table.match_ack(flow(f), eack)
                want = model.match_ack(flow(f).signature, eack)
                assert (got and got.record_id) == (want and want.record_id)
            else:
                if kind == "recirculate":
                    if displaced is None:
                        continue
                    mine = displaced._replace(
                        recirc_count=displaced.recirc_count + 1)
                else:
                    # A record of flow f carrying flow donor's signature:
                    # what a 4-byte signature collision looks like.
                    mine = PtRecord(next_id, flow(f), flow(donor).signature,
                                    eack, 0, recirc_count=recircs)
                    next_id += 1
                outcome = table.insert(mine)
                status, evicted = model.insert(mine)
                assert outcome.status is status
                assert outcome.evicted == evicted
                if status is InsertStatus.PLACED_EVICTING:
                    displaced = outcome.evicted
                elif status is InsertStatus.UNPLACED:
                    displaced = mine
            assert layout(table._stages) == layout(model.stages)
            assert table._stages == model.stages  # every field of every slot
            assert table.occupancy() == sum(
                slot is not None for stage in model.stages for slot in stage)

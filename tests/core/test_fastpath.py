"""Micro-tests for the per-packet fast path's structural guarantees.

The hot-path optimizations lean on three properties that are easy to
break silently:

* ``__slots__`` dataclasses must still pickle — the cluster's process
  workers ship ``ShardResult`` payloads (stats, PT records, flow keys)
  across the process boundary.
* ``FlowKey``'s cached hash/CRC/signature must be invisible to equality
  and survive interning — an interned key and a hand-built one are the
  same key.
* Degenerate batches must be no-ops (covered in depth by
  ``test_batch_equivalence``; the pickle/interning angles live here).
"""

import pickle

from repro.core import Dart, DartStats
from repro.core.flow import FlowKey, ack_target_flow, flow_of, intern_flow
from repro.core.hashing import signature32, stage_index, stage_index_from_crc
from repro.core.packet_tracker import PtRecord
from repro.core.range_tracker import RangeEntry, SeqVerdict
from repro.net.packet import PacketRecord
from repro.net.tcp import FLAG_ACK, FLAG_PSH

FLOW = FlowKey(src_ip=0x0A000001, dst_ip=0xC0A80001,
               src_port=443, dst_port=51234)

PACKET = PacketRecord(timestamp_ns=1_000, src_ip=0x0A000001,
                      dst_ip=0xC0A80001, src_port=443, dst_port=51234,
                      seq=100, ack=0, flags=FLAG_ACK | FLAG_PSH,
                      payload_len=1448)


class TestSlotsPickling:
    """Every slotted hot-path type must cross the process boundary."""

    def test_flow_key_round_trips_with_hash_and_equality(self):
        clone = pickle.loads(pickle.dumps(FLOW))
        assert clone == FLOW
        assert hash(clone) == hash(FLOW)
        assert clone.key_bytes() == FLOW.key_bytes()
        assert clone.key_crc == FLOW.key_crc
        assert clone.signature == FLOW.signature

    def test_flow_key_pickles_after_caches_are_warm(self):
        warm = intern_flow(1, 2, 3, 4)
        warm.key_bytes()
        _ = warm.key_crc, warm.signature  # populate every lazy cache
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == warm
        assert hash(clone) == hash(warm)
        assert clone.key_crc == warm.key_crc

    def test_warm_flow_key_pickles_to_the_bytes_of_a_fresh_one(self):
        fresh = FlowKey(src_ip=5, dst_ip=6, src_port=7, dst_port=8)
        warm = FlowKey(src_ip=5, dst_ip=6, src_port=7, dst_port=8)
        _ = warm.key_crc, warm.signature, warm.mix0  # every lazy cache
        assert pickle.dumps(warm) == pickle.dumps(fresh)

    def test_unpickled_flow_key_is_the_interned_object(self):
        for key in (FLOW, intern_flow(1 << 120, 2 << 100, 80, 8080, True)):
            clone = pickle.loads(pickle.dumps(key))
            assert clone is intern_flow(key.src_ip, key.dst_ip, key.src_port,
                                        key.dst_port, key.ipv6)

    def test_warm_pt_record_pickles_to_the_bytes_of_a_fresh_one(self):
        def record():
            return PtRecord(record_id=7, flow=FLOW, signature=FLOW.signature,
                            eack=1548, timestamp_ns=1_000, leg="external",
                            recirc_count=1, last_evicted_id=3)
        warm = record()
        warm.mix0()  # fills the key, CRC and mix caches
        assert pickle.dumps(warm) == pickle.dumps(record())
        assert pickle.loads(pickle.dumps(warm)) == warm

    def test_packet_record_round_trips(self):
        clone = pickle.loads(pickle.dumps(PACKET))
        assert clone == PACKET
        assert clone.flags == PACKET.flags

    def test_pt_record_round_trips_with_warm_key_cache(self):
        record = PtRecord(record_id=7, flow=FLOW, signature=FLOW.signature,
                          eack=1548, timestamp_ns=1_000)
        record.key_bytes()  # warm the lazy key cache before pickling
        clone = pickle.loads(pickle.dumps(record))
        assert clone.record_id == record.record_id
        assert clone.flow == record.flow
        assert clone.key_bytes() == record.key_bytes()

    def test_range_entry_round_trips(self):
        entry = RangeEntry(signature=0xDEADBEEF, left=100, right=2000,
                           touched_ns=42)
        clone = pickle.loads(pickle.dumps(entry))
        assert clone == entry

    def test_dart_stats_round_trips_including_verdict_dicts(self):
        stats = DartStats(seq_verdicts={SeqVerdict.NEW_FLOW: 5}, samples=9)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert list(clone.seq_verdicts) == list(stats.seq_verdicts)

    def test_stats_from_a_real_run_round_trip(self):
        dart = Dart()
        dart.process(PACKET)
        clone = pickle.loads(pickle.dumps(dart.stats))
        assert clone == dart.stats


class TestInterning:
    def test_flow_of_returns_the_same_object_per_flow(self):
        assert flow_of(PACKET) is flow_of(PACKET)

    def test_ack_target_is_the_interned_reverse(self):
        assert ack_target_flow(PACKET) is flow_of(PACKET).reversed()

    def test_uninterned_key_equals_and_hashes_like_interned(self):
        direct = FlowKey(src_ip=PACKET.src_ip, dst_ip=PACKET.dst_ip,
                         src_port=PACKET.src_port, dst_port=PACKET.dst_port)
        interned = flow_of(PACKET)
        assert direct == interned
        assert hash(direct) == hash(interned)
        assert {interned: "hit"}[direct] == "hit"

    def test_cached_values_do_not_leak_into_equality(self):
        cold = FlowKey(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        warm = FlowKey(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        _ = warm.key_crc, warm.signature, warm.key_bytes()
        assert cold == warm
        assert hash(cold) == hash(warm)


class TestCachedHashing:
    def test_cached_crc_matches_direct_computation(self):
        import zlib

        assert FLOW.key_crc == zlib.crc32(FLOW.key_bytes())

    def test_cached_signature_matches_direct_computation(self):
        assert FLOW.signature == signature32(FLOW.key_bytes())

    def test_stage_index_from_crc_matches_stage_index(self):
        for stage in range(4):
            assert stage_index_from_crc(FLOW.key_crc, stage, 1024) == \
                stage_index(FLOW.key_bytes(), stage, 1024)

    def test_ipv6_key_bytes_are_36_bytes(self):
        v6 = intern_flow(1 << 120, 2 << 100, 80, 8080, True)
        assert len(v6.key_bytes()) == 36
        assert v6.key_crc == __import__("zlib").crc32(v6.key_bytes())

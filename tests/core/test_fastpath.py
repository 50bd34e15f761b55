"""Micro-tests for the per-packet fast path's structural guarantees.

The hot-path optimizations lean on three properties that are easy to
break silently:

* ``__slots__`` dataclasses and row tuples must still pickle — the
  cluster's process workers ship ``ShardResult`` payloads (stats, PT
  records, flow keys) across the process boundary.
* ``FlowKey``'s cached hash/CRC/signature must be invisible to equality
  and survive interning — an interned key and a hand-built one are the
  same key.
* Degenerate batches must be no-ops (covered in depth by
  ``test_batch_equivalence``; the pickle/interning angles live here).
"""

import hashlib
import pickle

import pytest

from repro.analysis.accuracy import compare_samples
from repro.baselines.dapper import DapperMonitor
from repro.baselines.strawman import Strawman
from repro.baselines.tcptrace import TcpTrace
from repro.cluster.merge import merge_sample_lists
from repro.core import Dart, DartStats, LegFilter, RttSample
from repro.export.records import decode_sample, encode_sample
from repro.net.inet import InternalNetwork, int_to_ipv4, ipv4_to_int
from repro.quic import QuicScenarioConfig, SpinBitMonitor, generate_quic_trace
from repro.traces import CampusTraceConfig, generate_campus_trace
from repro.core.flow import FlowKey, ack_target_flow, flow_of, intern_flow
from repro.core.hashing import pack_u32, signature32, stage_index
from repro.core.packet_tracker import (
    InsertStatus,
    PtRecord,
    StagedPacketTable,
)
from repro.core.range_tracker import RangeEntry, SeqVerdict
from repro.net.packet import PacketRecord
from repro.net.tcp import FLAG_ACK, FLAG_PSH

FLOW = FlowKey(src_ip=0x0A000001, dst_ip=0xC0A80001,
               src_port=443, dst_port=51234)

PACKET = PacketRecord(timestamp_ns=1_000, src_ip=0x0A000001,
                      dst_ip=0xC0A80001, src_port=443, dst_port=51234,
                      seq=100, ack=0, flags=FLAG_ACK | FLAG_PSH,
                      payload_len=1448)


def travelled_pt_record() -> PtRecord:
    """Record 7 after an insertion, an eviction and a recirculation in
    a one-slot PT, as the pipeline hands it back to the table."""
    table = StagedPacketTable(1)
    first = PtRecord(3, FLOW, FLOW.signature, 1000, 500)
    record = PtRecord(7, FLOW, FLOW.signature, 1548, 1_000, leg="external")
    table.insert(first)
    assert table.insert(record).evicted is first  # record holds the slot
    outcome = table.insert(first._replace(recirc_count=1))
    assert outcome.status is InsertStatus.PLACED_EVICTING
    evicted = outcome.evicted  # record, carrying the id it evicted
    return evicted._replace(recirc_count=evicted.recirc_count + 1)


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
        fresh = PtRecord(record_id=7, flow=FLOW, signature=FLOW.signature,
                         eack=1548, timestamp_ns=1_000, leg="external",
                         recirc_count=1, last_evicted_id=3)
        travelled = travelled_pt_record()
        assert travelled == fresh
        assert pickle.dumps(travelled) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(travelled)) == travelled

    def test_packet_record_round_trips(self):
        clone = pickle.loads(pickle.dumps(PACKET))
        assert clone == PACKET
        assert clone.flags == PACKET.flags

    def test_pt_record_round_trips_with_warm_key_cache(self):
        record = travelled_pt_record()
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert type(clone) is PtRecord
        assert clone.flow is intern_flow(FLOW.src_ip, FLOW.dst_ip,
                                         FLOW.src_port, FLOW.dst_port, False)
        # The clone hashes into the slot its original was matched from.
        table = StagedPacketTable(64)
        table.insert(clone)
        assert table.match_ack(FLOW, record.eack) == record

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


class TestFlowText:
    def test_warm_text_is_invisible(self):
        cold = FlowKey(src_ip=0x0A000001, dst_ip=1 << 31, src_port=3,
                       dst_port=4)
        warm = FlowKey(src_ip=0x0A000001, dst_ip=1 << 31, src_port=3,
                       dst_port=4)
        assert warm.address_text == ("10.0.0.1", "128.0.0.0")
        assert warm._text is not None and cold._text is None
        assert cold == warm
        assert hash(cold) == hash(warm)
        assert repr(cold) == repr(warm)
        assert pickle.dumps(cold) == pickle.dumps(warm)
        assert pickle.loads(pickle.dumps(warm)) == cold

    def test_text_matches_the_formatters(self):
        v6 = FlowKey(src_ip=(0x20010DB8 << 96) + 1, dst_ip=1, src_port=1,
                     dst_port=2, ipv6=True)
        assert v6.address_text == ("2001:db8::1", "::1")
        assert v6.describe() == "2001:db8::1:1 > ::1:2"
        assert FLOW.describe() == (f"{int_to_ipv4(FLOW.src_ip)}:"
                                   f"{FLOW.src_port} > "
                                   f"{int_to_ipv4(FLOW.dst_ip)}:"
                                   f"{FLOW.dst_port}")

    def test_reinterned_key_gives_the_same_text(self):
        args = (0xC0A80001, 0x08080808, 5000, 53, False)
        text = intern_flow(*args).address_text
        intern_flow.cache_clear()
        fresh = intern_flow(*args)
        assert fresh._text is None
        assert fresh.address_text == text == ("192.168.0.1", "8.8.8.8")


class TestCachedHashing:
    def test_cached_crc_matches_direct_computation(self):
        import zlib

        assert FLOW.key_crc == zlib.crc32(FLOW.key_bytes())

    def test_cached_signature_matches_direct_computation(self):
        assert FLOW.signature == signature32(FLOW.key_bytes())

    def test_stage_index_from_crc_matches_stage_index(self):
        # The PT computes one CRC of (signature, eack) per pass and
        # writes each stage's salted mix out in line: a record lands,
        # and is matched, at stage_index of its key at whichever stage
        # is the first free one.
        key = pack_u32(FLOW.signature, 1548)
        record = PtRecord(1, FLOW, FLOW.signature, 1548, 0)
        blocker = PtRecord(0, FLOW, FLOW.signature, 7, 0)
        for stage in range(4):
            table = StagedPacketTable(4 * 1024, 4)
            for earlier in range(stage):
                table._stages[earlier][stage_index(key, earlier, 1024)] = \
                    blocker
            assert table.insert(record).status is InsertStatus.PLACED
            assert table._stages[stage][stage_index(key, stage, 1024)] \
                is record
            assert table.match_ack(FLOW, 1548) is record

    def test_ipv6_key_bytes_are_36_bytes(self):
        v6 = intern_flow(1 << 120, 2 << 100, 80, 8080, True)
        assert len(v6.key_bytes()) == 36
        assert v6.key_crc == __import__("zlib").crc32(v6.key_bytes())


# -- RttSample is a row tuple -------------------------------------------------

CAMPUS = generate_campus_trace(CampusTraceConfig(connections=6, seed=5)).records
BOTH_LEGS = LegFilter(InternalNetwork([(ipv4_to_int("10.0.0.0"), 8)]))


def dart_samples():
    return Dart(leg_filter=BOTH_LEGS).process_batch(CAMPUS)


def spin_bit_samples():
    trace = generate_quic_trace(QuicScenarioConfig(duration_ns=2 * 10**9,
                                                   seed=3))
    monitor = SpinBitMonitor(
        is_client=lambda addr: addr == trace.config.client_ip)
    return monitor.process_batch(trace.records)


#: Every emitter of samples, with the count and a digest of the field
#: values it produced while ``RttSample`` was a frozen dataclass.
EMITTERS = {
    "dart": (dart_samples, 1688, "7ed829682223c8df"),
    "tcptrace": (lambda: TcpTrace().process_batch(CAMPUS),
                 1692, "07a1802672a4f0cd"),
    "strawman": (lambda: Strawman(track_handshake=True).process_batch(CAMPUS),
                 1692, "a5408ed5fecc60c7"),
    "dapper": (lambda: DapperMonitor().process_batch(CAMPUS),
               57, "f6b0c353d5a4be5e"),
    "spin-bit": (spin_bit_samples, 70, "0b000e59d6387ac9"),
    "decode_sample": (lambda: [decode_sample(encode_sample(s))
                               for s in dart_samples()],
                      1688, "7ed829682223c8df"),
}


def field_digest(samples) -> str:
    rows = [(s.flow.src_ip, s.flow.dst_ip, s.flow.src_port, s.flow.dst_port,
             s.flow.ipv6, s.rtt_ns, s.timestamp_ns, s.eack, s.handshake,
             s.leg) for s in samples]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class TestRttSampleRows:
    @pytest.mark.parametrize("emitter", EMITTERS)
    def test_emitter_yields_samples_with_unchanged_fields(self, emitter):
        produce, count, digest = EMITTERS[emitter]
        samples = produce()
        assert all(type(s) is RttSample for s in samples)
        assert (len(samples), field_digest(samples)) == (count, digest)
        sample = samples[0]
        with pytest.raises(AttributeError):
            sample.rtt_ns = 0
        assert pickle.loads(pickle.dumps(sample)) == sample
        assert sample.rtt_ms == sample.rtt_ns / 1e6

    def test_comparison_and_sorting_are_unchanged(self):
        dart = dart_samples()
        tcptrace = TcpTrace().process_batch(CAMPUS)
        report = compare_samples(dart, tcptrace)
        assert (report.candidate_count, report.reference_count,
                report.paired, report.exact_fraction) == (1688, 1692, 1688,
                                                         1.0)
        report = compare_samples(DapperMonitor().process_batch(CAMPUS),
                                 tcptrace)
        assert (report.paired, report.reference_duplicates) == (29, 0)
        # Shards interleave by ACK time, stably: halves merge back whole.
        assert merge_sample_lists([dart[1::2], dart[0::2]]) == dart
        assert sorted(dart, key=lambda s: s.timestamp_ns) == dart

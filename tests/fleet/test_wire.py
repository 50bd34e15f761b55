"""Fleet wire protocol: framing and codecs are lossless and loud.

The framing mirrors the checkpoint discipline (magic, versioned JSON
header, SHA-256'd payload): corruption anywhere is a typed error at the
receiving end, never a mis-merge.
"""

import io
import json
from dataclasses import fields

import pytest

from repro.core.analytics import WindowMinimum
from repro.core.flow import flow_of, intern_flow
from repro.core.pipeline import DartStats
from repro.core.range_tracker import AckVerdict, SeqVerdict
from repro.baselines.tcptrace import TcpTraceStats
from repro.fleet import (
    MAGIC,
    WIRE_SCHEMA,
    FrameCorrupt,
    WireSchemaMismatch,
    encode_frame,
    key_from_wire,
    key_to_wire,
    read_frame,
    stats_from_wire,
    stats_to_wire,
    window_from_wire,
    window_to_wire,
)
from repro.fleet.wire import STATS_TYPES


def roundtrip(blob: bytes):
    return read_frame(io.BytesIO(blob))


class TestFraming:
    def test_round_trip(self):
        blob = encode_frame("delta", agent="tap0", epoch=7, seq=3,
                            payload={"records": 12})
        frame = roundtrip(blob)
        assert frame.kind == "delta"
        assert frame.agent == "tap0"
        assert frame.stamp == (7, 3)
        assert frame.payload == {"records": 12}

    def test_empty_payload(self):
        frame = roundtrip(encode_frame("heartbeat", agent="a",
                                       epoch=1, seq=1))
        assert frame.kind == "heartbeat"
        assert frame.payload == {}

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_consecutive_frames_from_one_stream(self):
        stream = io.BytesIO(
            encode_frame("hello", agent="a", epoch=1, seq=1)
            + encode_frame("delta", agent="a", epoch=1, seq=2,
                           payload={"x": 1})
        )
        first, second, end = (read_frame(stream), read_frame(stream),
                              read_frame(stream))
        assert (first.kind, second.kind, end) == ("hello", "delta", None)

    def test_bad_magic_refused(self):
        with pytest.raises(FrameCorrupt, match="magic"):
            roundtrip(b"NOTDARTS" + b"\x00" * 32)

    def test_truncated_mid_frame_refused(self):
        blob = encode_frame("delta", agent="a", epoch=1, seq=1,
                            payload={"x": 1})
        with pytest.raises(FrameCorrupt, match="truncated"):
            roundtrip(blob[:-3])

    def test_corrupt_payload_digest_refused(self):
        blob = bytearray(encode_frame("delta", agent="a", epoch=1, seq=1,
                                      payload={"x": 1}))
        blob[-2] ^= 0xFF  # flip a payload byte; header digest now wrong
        with pytest.raises(FrameCorrupt, match="digest"):
            roundtrip(bytes(blob))

    def test_schema_mismatch_refused(self):
        blob = encode_frame("delta", agent="a", epoch=1, seq=1)
        doctored = blob.replace(WIRE_SCHEMA.encode(), b"dart-fleet-wire/9")
        with pytest.raises(WireSchemaMismatch):
            roundtrip(doctored)

    def test_first_schema_refused(self):
        # /1 carried histogram and sketch views; /2 carries registers.
        assert WIRE_SCHEMA == "dart-fleet-wire/2"
        blob = encode_frame("delta", agent="a", epoch=1, seq=1)
        doctored = blob.replace(WIRE_SCHEMA.encode(), b"dart-fleet-wire/1")
        with pytest.raises(WireSchemaMismatch):
            roundtrip(doctored)

    def test_unknown_kind_refused_at_both_ends(self):
        with pytest.raises(ValueError, match="kind"):
            encode_frame("gossip", agent="a", epoch=1, seq=1)

    def test_magic_is_eight_bytes(self):
        # Same width as DARTCKPT, by design.
        assert len(MAGIC) == 8


class TestKeyCodec:
    def test_flow_key_round_trip_matches_packet_interning(self):
        key = intern_flow(0x0A000001, 0x0A000002, 443, 51334, False)
        assert key_from_wire(key_to_wire(key)) is key

    def test_int_and_str_keys(self):
        assert key_from_wire(key_to_wire(167772160)) == 167772160
        assert key_from_wire(key_to_wire("all")) == "all"

    def test_unknown_key_type_refused(self):
        with pytest.raises(ValueError, match="key"):
            key_to_wire(1.5)

    def test_unknown_tag_refused(self):
        with pytest.raises(ValueError, match="tag"):
            key_from_wire({"t": "blob"})


class TestWindowCodec:
    def test_round_trip(self):
        window = WindowMinimum(
            key=intern_flow(1, 2, 3, 4, False),
            window_index=5, min_rtt_ns=1200, sample_count=8,
            closed_at_ns=999,
        )
        assert window_from_wire(window_to_wire(window)) == window


class TestStatsCodec:
    def test_dart_stats_with_enum_verdicts(self):
        stats = DartStats()
        stats.packets_processed = 100
        stats.samples = 40
        stats.seq_verdicts[SeqVerdict.TRACK] = 30
        stats.ack_verdicts[AckVerdict.VALID] = 25
        restored = stats_from_wire(stats_to_wire(stats))
        assert restored.packets_processed == 100
        assert restored.seq_verdicts == {SeqVerdict.TRACK: 30}
        assert restored.ack_verdicts == {AckVerdict.VALID: 25}

    def test_restored_stats_merge_like_originals(self):
        a, b = DartStats(), DartStats()
        a.samples, b.samples = 3, 4
        a.seq_verdicts[SeqVerdict.TRACK] = 1
        b.seq_verdicts[SeqVerdict.TRACK] = 2
        merged = DartStats()
        merged.merge(stats_from_wire(stats_to_wire(a)))
        merged.merge(stats_from_wire(stats_to_wire(b)))
        assert merged.samples == 7
        assert merged.seq_verdicts[SeqVerdict.TRACK] == 3

    def test_baseline_stats_round_trip(self):
        stats = TcpTraceStats()
        stats.packets_processed = 11
        restored = stats_from_wire(stats_to_wire(stats))
        assert isinstance(restored, TcpTraceStats)
        assert restored.packets_processed == 11

    def test_unregistered_type_refused(self):
        with pytest.raises(ValueError, match="known"):
            stats_to_wire(object())

    def test_unknown_wire_type_refused(self):
        with pytest.raises(ValueError, match="unknown stats type"):
            stats_from_wire({"type": "EvilStats", "fields": {}})

    def test_unknown_field_refused(self):
        wire = stats_to_wire(DartStats())
        wire["fields"]["not_a_field"] = 1
        with pytest.raises(ValueError, match="no field"):
            stats_from_wire(wire)

    @pytest.mark.parametrize("name", sorted(STATS_TYPES))
    def test_every_stats_type_round_trips(self, name):
        cls = STATS_TYPES[name]
        stats = cls(**{f.name: 3 + i for i, f in enumerate(fields(cls))
                       if f.type == "int"})
        if cls is DartStats:
            stats.seq_verdicts = {SeqVerdict.TRACK: 5, SeqVerdict.OVERLAP: 1}
            stats.ack_verdicts = {AckVerdict.NO_FLOW: 2}
        state = json.loads(json.dumps(stats.to_state()))
        assert cls.from_state(state) == stats
        assert stats_from_wire(stats_to_wire(stats)) == stats

    @pytest.mark.parametrize("fields_", [
        {"samples": -1},
        {"samples": True},
        {"samples": 1.5},
        {"samples": "x"},
        {"seq_verdicts": {"no-such-verdict": 1}},
        {"seq_verdicts": {"track": -2}},
    ])
    def test_bad_counter_refused(self, fields_):
        with pytest.raises(ValueError):
            DartStats.from_state(fields_)

    def test_counter_missing_from_an_older_peer_reads_zero(self):
        # An agent built before a counter existed omits it; the sum
        # across the fleet then counts only the agents that have it.
        for counter in ("negative_rtt_drops", "duplicate_inserts"):
            wire = stats_to_wire(DartStats(**{counter: 2}))
            assert wire["fields"][counter] == 2
            del wire["fields"][counter]
            assert getattr(stats_from_wire(wire), counter) == 0

"""``process_wire``'s header parse is the vector mask, no more, no less.

In either mode the coordinator reads the 40 fixed header bytes of an
option-free IPv4/TCP frame once and ships the fields as a ``REC_V4``
record; every other frame still travels whole as ``REC_WIRE``.  Three
guarantees are pinned here on frames built by the repo's own codecs and
then damaged (truncated, header bytes overwritten, options inserted,
IPv6, UDP, raw-IP linktype, NS/CWR/ECE flags):

* a numpy-free oracle — what the fast path ships is what
  :func:`~repro.net.packet.from_wire_bytes` decodes, on the shard
  :func:`~repro.cluster.shard_of_wire` names; what it declines travels
  byte for byte as before;
* with numpy — it takes a frame exactly when
  :func:`repro.net.columnar._scan_v4_tcp` marks the row ``KIND_VEC``,
  with the same fields;
* what a worker does with the batch — ``Dart.process_framed`` over
  :func:`~repro.net.framing.header_rows` — equals
  ``process_batch(decode_batch(payload))`` in stats, samples and error
  text, on random mixed batches; the all-``REC_V4`` batch's one-call
  read equals the frame walk, and anything that is not a pure
  ``REC_V4`` batch falls through to the walk and its errors.

The NS-flag regression (nine flag bits through every record route)
lives here too.
"""

import zlib
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedDart, shard_of_wire
from repro.cluster.sharding import ByteBatchDispatcher, plain_v4_tcp
from repro.core import Dart, DartConfig, ideal_config
from repro.net import tcp as tcpf
from repro.net.columnar import HAVE_NUMPY
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.framing import (
    REC_V4,
    REC_V6,
    REC_WIRE,
    BatchEncoder,
    FrameError,
    decode_batch,
    encode_records,
    header_rows,
)
from repro.net.ipv4 import PROTO_TCP, IPv4Packet
from repro.net.packet import PacketRecord, from_wire_bytes, to_wire_bytes
from repro.net.scan import TCP_ONLY
from repro.quic.packet import QuicPacketRecord
from repro.quic.wire import quic_to_wire_bytes
from repro.traces import CampusTraceConfig, generate_campus_trace

FLAG_NS = 0x100

ipv4_addr = st.integers(min_value=0, max_value=(1 << 32) - 1)
port = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
timestamps = st.integers(min_value=0, max_value=2**62)


def option_frame(record, *, ip_options=b"", tcp_options=None):
    """``to_wire_bytes`` for IPv4 with IP and/or TCP options inserted."""
    segment = tcpf.TcpSegment(
        src_port=record.src_port, dst_port=record.dst_port, seq=record.seq,
        ack=record.ack, flags=record.flags,
        options=tcp_options or tcpf.TcpOptions(),
        payload=b"\x00" * record.payload_len,
    )
    packet = IPv4Packet(
        src=record.src_ip, dst=record.dst_ip, proto=PROTO_TCP,
        options=ip_options,
        payload=segment.encode(
            src_addr=record.src_ip.to_bytes(4, "big"),
            dst_addr=record.dst_ip.to_bytes(4, "big"),
        ),
    )
    return EthernetFrame(ethertype=ETHERTYPE_IPV4,
                         payload=packet.encode()).encode()


@st.composite
def v4_records(draw):
    return PacketRecord(
        timestamp_ns=draw(timestamps), src_ip=draw(ipv4_addr),
        dst_ip=draw(ipv4_addr), src_port=draw(port), dst_port=draw(port),
        seq=draw(u32), ack=draw(u32),
        flags=draw(st.integers(min_value=0, max_value=0x1FF)),
        payload_len=draw(st.integers(min_value=0, max_value=64)),
    )


#: Offsets (in an Ethernet frame) of the bytes the fast path decides on:
#: ethertype, version/IHL, total length, protocol, data offset.
DECIDING_BYTES = (12, 13, 14, 16, 17, 23, 46)


@st.composite
def damaged_frames(draw):
    """``(frame, linktype_is_ethernet)`` around the fast path's edges."""
    record = draw(v4_records())
    shape = draw(st.sampled_from(
        ["plain", "plain", "tcp_options", "ip_options", "ipv6", "udp"]))
    if shape == "plain":
        frame = to_wire_bytes(record)
    elif shape == "tcp_options":
        frame = option_frame(record, tcp_options=tcpf.TcpOptions(
            timestamp=(draw(u32), draw(u32))))
    elif shape == "ip_options":
        frame = option_frame(record, ip_options=b"\x01" * 4)
    elif shape == "ipv6":
        frame = to_wire_bytes(replace(
            record, src_ip=(1 << 100) | record.src_ip,
            dst_ip=(1 << 99) | record.dst_ip, ipv6=True))
    else:
        frame = quic_to_wire_bytes(QuicPacketRecord(
            timestamp_ns=record.timestamp_ns, src_ip=record.src_ip,
            dst_ip=record.dst_ip, src_port=record.src_port,
            dst_port=record.dst_port, spin_bit=False, long_header=False,
            payload_len=record.payload_len))
    frame = bytearray(frame)
    damage = draw(st.sampled_from(
        ["none", "none", "overwrite", "cut", "cut_tail", "pad"]))
    if damage == "overwrite":
        for offset in draw(st.lists(st.sampled_from(DECIDING_BYTES),
                                    min_size=1, max_size=2)):
            if offset < len(frame):
                frame[offset] = draw(st.integers(min_value=0,
                                                 max_value=255))
    ethernet = draw(st.booleans())
    if not ethernet:
        del frame[:14]
    if damage == "cut":
        del frame[draw(st.integers(min_value=0, max_value=60)):]
    elif damage == "cut_tail":
        del frame[-draw(st.integers(min_value=1, max_value=3)):]
    elif damage == "pad":
        frame += b"\xAA" * draw(st.integers(min_value=1, max_value=6))
    return bytes(frame), ethernet


def route(frame, ts, ethernet, shards):
    """What ``dispatch_wire`` ships: ``(shard, payload)`` or ``None``."""
    emitted = []
    dispatcher = ByteBatchDispatcher(
        shards, lambda shard, payload: emitted.append((shard, payload)))
    shipped = dispatcher.dispatch_wire(frame, ts, linktype_ethernet=ethernet)
    dispatcher.flush()
    assert len(emitted) == (1 if shipped else 0)
    return emitted[0] if shipped else None


def outcome(function, *args, **kwargs):
    """A call's result, or the exception it raised, as comparable data."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - parity includes the error
        return type(exc), str(exc)


class TestFastPathOracle:
    @settings(max_examples=300)
    @given(damaged_frames(), timestamps,
           st.integers(min_value=1, max_value=8))
    def test_shipped_record_is_the_full_decode(self, damaged, ts, shards):
        frame, ethernet = damaged
        fields = plain_v4_tcp(frame, linktype_ethernet=ethernet)
        expected_shard = shard_of_wire(
            frame, shards, linktype_ethernet=ethernet, protocols=TCP_ONLY)
        routed = route(frame, ts, ethernet, shards)
        if routed is None:
            assert fields is None and expected_shard is None
            return
        shard, payload = routed
        assert shard == expected_shard
        if fields is None:
            # Declined: the frame travels whole, exactly as before.
            reference = BatchEncoder()
            reference.add_wire(frame, ts, linktype_ethernet=ethernet)
            assert payload[2] == REC_WIRE
            assert payload == reference.take()
        else:
            record = from_wire_bytes(frame, ts, linktype_ethernet=ethernet)
            assert record == PacketRecord(ts, *fields)
            assert payload[2] == REC_V4
            assert decode_batch(payload) == [record]

    def test_every_truncation_of_a_plain_frame(self):
        record = PacketRecord(5, 0x0A000001, 0x0A000002, 1234, 80, 7, 9,
                              tcpf.FLAG_ACK | FLAG_NS, 10)
        frame = to_wire_bytes(record)
        for ethernet, whole in ((True, frame), (False, frame[14:])):
            for cut in range(len(whole) + 1):
                taken = plain_v4_tcp(whole[:cut],
                                     linktype_ethernet=ethernet)
                # total_length covers the payload, so only the whole
                # frame fits it; anything shorter must take the old
                # route and fail (or decode) where it always did.
                assert (taken is not None) == (cut == len(whole))
            assert PacketRecord(5, *plain_v4_tcp(
                whole, linktype_ethernet=ethernet)) == record

    def test_truncated_below_total_length_travels_whole(self):
        frame = to_wire_bytes(PacketRecord(
            1, 1, 2, 3, 4, 5, 6, tcpf.FLAG_ACK, 100))[:60]
        assert len(frame) >= 54
        _, payload = route(frame, 1, True, 2)
        assert payload[2] == REC_WIRE
        with pytest.raises(ValueError, match="bad IPv4 total length"):
            decode_batch(payload)


@pytest.mark.skipif(not HAVE_NUMPY, reason="compares against the "
                    "vectorised header scan")
class TestFastPathIsTheVectorMask:
    @settings(max_examples=300)
    @given(st.lists(damaged_frames(), min_size=1, max_size=6))
    def test_taken_iff_kind_vec(self, batch):
        import numpy as np

        from repro.net.columnar import KIND_VEC, _scan_v4_tcp

        # Several frames in one buffer: a short frame's out-of-range
        # header offsets land in its neighbour, as they do in a chunk.
        frames = [frame for frame, _ in batch]
        lens = np.array([len(f) for f in frames], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lens[:-1])))
        kinds, *columns = _scan_v4_tcp(
            np.frombuffer(b"".join(frames), dtype=np.uint8), starts, lens,
            np.array([eth for _, eth in batch], dtype=np.bool_))
        for i, (frame, ethernet) in enumerate(batch):
            fields = plain_v4_tcp(frame, linktype_ethernet=ethernet)
            assert (fields is not None) == (kinds[i] == KIND_VEC)
            if fields is not None:
                assert fields == tuple(int(c[i]) for c in columns)


def records_of(rows):
    """``header_rows`` output as the records ``decode_batch`` builds."""
    return [PacketRecord(*row[2:], ipv6=row[1] == REC_V6) for row in rows]


def decoded(payload):
    """``decode_batch`` with the non-TCP ``None`` entries squeezed out:
    a frame the full decode drops yields no header row either."""
    return [record for record in decode_batch(payload) if record is not None]


class TestUniformStrideShortcut:
    @settings(max_examples=100)
    @given(st.lists(v4_records(), min_size=1, max_size=40))
    def test_equals_the_scalar_walk(self, records):
        payload = encode_records(records)
        assert len(payload) == 37 * len(records)
        shortcut = header_rows(payload)
        # One trailing REC_V6 frame (61 bytes) breaks the stride, so the
        # same records go through the frame walk, which returns a list.
        tail = PacketRecord(1, 1 << 100, 1 << 99, 1, 2, 3, 4, 0x10, 0,
                            ipv6=True)
        walked = header_rows(payload + encode_records([tail]))
        assert not isinstance(shortcut, list) and isinstance(walked, list)
        assert list(shortcut) == walked[:len(records)]
        assert records_of(header_rows(payload)) == records

    def test_high_timestamp_bits_wrap_like_the_walk(self):
        record = PacketRecord((1 << 64) - 5, 1, 2, 3, 4, 5, 6, 0x1FF, 7)
        payload = encode_records([record])
        tail = encode_records([PacketRecord(1, 1 << 100, 2, 1, 2, 3, 4,
                                            0x10, 0, ipv6=True)])
        assert (list(header_rows(payload))
                == header_rows(payload + tail)[:1]
                == [(35, REC_V4, (1 << 64) - 5, 1, 2, 3, 4, 5, 6, 0x1FF, 7)])

    @pytest.mark.parametrize("mixed_in", ["v6", "wire"])
    def test_stride_multiple_but_mixed_takes_the_walk(self, mixed_in):
        plain = [PacketRecord(i, 1, 2, 3, 4, i, 6, 0x10, i)
                 for i in range(5)]
        encoder = BatchEncoder()
        for record in plain[:3]:
            encoder.add_record(record)
        if mixed_in == "v6":
            # 37 REC_V6 frames of 61 bytes: a multiple of the stride.
            odd = [PacketRecord(9, 1 << 100, 2, 3, 4, i, 6, 0x10, 0,
                                ipv6=True) for i in range(37)]
            for record in odd:
                encoder.add_record(record)
        else:
            # REC_WIRE head (12) + a 62-byte frame = two strides.
            odd = [PacketRecord(9, 1, 2, 3, 4, 5, 6, 0x10, 8)]
            frame = to_wire_bytes(odd[0])
            assert len(frame) == 62
            encoder.add_wire(frame, 9)
        for record in plain[3:]:
            encoder.add_record(record)
        payload = encoder.take()
        assert len(payload) % 37 == 0
        assert (records_of(header_rows(payload))
                == decode_batch(payload) == plain[:3] + odd + plain[3:])

    @settings(max_examples=100)
    @given(st.lists(v4_records(), min_size=1, max_size=8), st.data())
    def test_one_corrupted_prefix_fails_like_the_walk(self, records, data):
        payload = bytearray(encode_records(records))
        at = 37 * data.draw(st.integers(0, len(records) - 1))
        at += data.draw(st.integers(0, 2))
        payload[at] ^= data.draw(st.integers(1, 255))
        payload = bytes(payload)
        # ``decode_batch`` is the record-at-a-time twin with the walk's
        # own checks and messages.
        expected = outcome(decoded, payload)
        got = outcome(lambda: records_of(header_rows(payload)))
        assert got == expected
        if isinstance(expected, tuple):
            assert issubclass(expected[0], ValueError)

    def test_empty_and_odd_length_batches(self):
        assert list(header_rows(b"")) == []
        assert Dart().process_framed(b"") == []
        with pytest.raises(FrameError):
            header_rows(encode_records(
                [PacketRecord(1, 1, 2, 3, 4, 5, 6, 0x10, 7)])[:-1])


@st.composite
def tcp_records(draw):
    """IPv4 or IPv6 records, nine flag bits."""
    record = draw(v4_records())
    if draw(st.booleans()):
        addr = st.integers(min_value=0, max_value=(1 << 128) - 1)
        record = replace(record, src_ip=draw(addr), dst_ip=draw(addr),
                         ipv6=True)
    return record


@lru_cache(maxsize=None)
def conversation():
    """A campus trace whose data and ACK segments carry NS: enough
    round trips in any window for the kernel to emit samples."""
    return ns_trace()


#: How one connection travels in a mixed batch.
SHAPES = ("record", "wire", "tcp_options", "v6_record", "v6_wire")


def add_shaped(encoder, record, shape):
    if shape.startswith("v6"):
        record = replace(record, src_ip=(1 << 100) | record.src_ip,
                         dst_ip=(1 << 100) | record.dst_ip, ipv6=True)
    if shape in ("record", "v6_record"):
        encoder.add_record(record)
    elif shape == "tcp_options":
        encoder.add_wire(option_frame(record, tcp_options=tcpf.TcpOptions(
            timestamp=(record.seq, record.ack))), record.timestamp_ns)
    else:
        encoder.add_wire(to_wire_bytes(record), record.timestamp_ns)


@st.composite
def mixed_batches(draw):
    """A framed batch as a worker may receive it, and worse: a window of
    a real conversation, each connection in one of :data:`SHAPES`, with
    random records and damaged, non-TCP or IPv6 wire frames mixed in,
    and sometimes the batch itself cut short or with one byte flipped."""
    trace = conversation()
    start = draw(st.integers(0, len(trace) - 1))
    window = trace[start:start + draw(st.integers(1, 150))]
    salt = draw(st.integers(0, 2**32 - 1))
    strays = draw(st.lists(
        st.tuples(st.integers(0, len(window)),
                  st.one_of(v4_records(), tcp_records(), damaged_frames())),
        max_size=4))
    encoder = BatchEncoder()
    for i, record in enumerate(window + [None]):
        for at, stray in strays:
            if at != i:
                continue
            if isinstance(stray, PacketRecord):
                encoder.add_record(stray)
            else:
                frame, ethernet = stray
                encoder.add_wire(frame, record.timestamp_ns if record else 0,
                                 linktype_ethernet=ethernet)
        if record is None:
            break
        ends = sorted([(record.src_ip, record.src_port),
                       (record.dst_ip, record.dst_port)])
        key = repr((ends, salt)).encode()
        add_shaped(encoder, record, SHAPES[zlib.crc32(key) % len(SHAPES)])
    payload = bytearray(encoder.take())
    damage = draw(st.sampled_from(["none", "none", "none", "cut", "flip"]))
    if damage == "cut":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif damage == "flip":
        payload[draw(st.integers(0, len(payload) - 1))] ^= draw(
            st.integers(1, 255))
    return bytes(payload)


#: Small tables and the handshake on: collisions, evictions,
#: recirculation and SYN handling all run.
SMALL = DartConfig(rt_slots=1 << 8, pt_slots=1 << 6, pt_stages=2,
                   max_recirculations=2, track_handshake=True)


class TestFramedRoute:
    """``Dart.process_framed`` is ``process_batch(decode_batch(...))``."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_batches())
    def test_random_mixed_batch_equals_decode_batch(self, payload):
        framed, reference = Dart(SMALL), Dart(SMALL)
        got = outcome(framed.process_framed, payload)
        expected = outcome(
            lambda: reference.process_batch(decode_batch(payload)))
        assert got == expected
        assert framed.stats == reference.stats
        assert framed.samples == reference.samples
        assert framed.occupancy() == reference.occupancy()

    @given(st.lists(tcp_records(), max_size=16))
    def test_framed_batch_matches_decode_batch(self, records):
        payload = encode_records(records)
        assert records_of(header_rows(payload)) == decode_batch(payload)

    @given(st.lists(tcp_records(), min_size=1, max_size=8), st.data())
    def test_truncated_framed_batch_same_error(self, records, data):
        payload = encode_records(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        expected = outcome(decode_batch, payload[:cut])
        got = outcome(lambda: records_of(header_rows(payload[:cut])))
        assert got == expected


# -- Nine flag bits through every record route ------------------------------

def ns_trace():
    """A campus trace whose data and ACK segments all carry NS."""
    records = generate_campus_trace(
        CampusTraceConfig(connections=30, seed=7)).records
    return [
        replace(record, flags=record.flags | FLAG_NS)
        if not record.flags & (tcpf.FLAG_SYN | tcpf.FLAG_RST) else record
        for record in records
    ]


@pytest.fixture(scope="module")
def ns_records():
    records = ns_trace()
    assert sum(1 for r in records if r.flags & FLAG_NS) > len(records) // 2
    return records


@pytest.fixture(scope="module")
def ns_serial(ns_records):
    dart = Dart(ideal_config())
    dart.process_batch(ns_records)
    dart.finalize()
    assert dart.samples
    return dart


def test_ns_flag_roundtrips_through_framing():
    record = PacketRecord(1, 1, 2, 3, 4, 5, 6, 0x110, 7)
    v6 = PacketRecord(1, 1 << 100, 2, 3, 4, 5, 6, 0x1FF, 7, ipv6=True)
    payload = encode_records([record, v6])
    assert len(payload) == 37 + 61
    assert decode_batch(payload) == [record, v6]


@pytest.mark.parametrize("fastpath", [True, False])
@pytest.mark.parametrize("entry", [
    # The record route; its id is the name the route had before
    # ``process_batch`` became the one record entry point.
    pytest.param("process_batch", id="process_trace"),
    "process_wire",
])
def test_ns_flagged_segments_match_serial(ns_records, ns_serial, entry,
                                          fastpath):
    cluster = ShardedDart(
        ideal_config(), shards=2, parallel="process", batch_size=128,
        join_timeout=15.0, fastpath=fastpath,
    )
    if entry == "process_batch":
        cluster.process_batch(ns_records)
    else:
        for record in ns_records:
            cluster.process_wire(to_wire_bytes(record), record.timestamp_ns)
    cluster.finalize()
    assert cluster.stats == ns_serial.stats
    assert Counter(cluster.samples) == Counter(ns_serial.samples)

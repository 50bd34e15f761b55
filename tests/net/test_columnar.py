"""Property tests for the columnar batch decoder and classify columns.

The fast path rests on two invariants, pinned here with hypothesis in
the style of ``tests/net/test_scan.py``:

* **decode equivalence** — for every batch of raw frames (TCP over
  IPv4/IPv6, QUIC-over-UDP, truncated and odd-length tails, arbitrary
  garbage), :func:`~repro.net.columnar.decode_wire_columns` materialises
  exactly the records the object decoder
  (:func:`~repro.net.packet.from_wire_bytes`) produces — including
  raising for exactly the frames the object decoder rejects;
* **classify equivalence** — every vectorised hash in
  :mod:`repro.fastpath.classify` is bit-for-bit its scalar twin from
  :mod:`repro.core.hashing` / :class:`~repro.core.flow.FlowKey`.
"""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.flow import flow_of
from repro.core.hashing import _mix32, pack2_u32, signature32
from repro.net.columnar import (
    HAVE_NUMPY,
    KIND_SKIP,
    KIND_VEC,
    decode_wire_columns,
    records_to_columns,
)
from repro.net.packet import PacketRecord, from_wire_bytes, to_wire_bytes
from repro.quic.packet import QuicPacketRecord
from repro.quic.wire import quic_to_wire_bytes

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the columnar fast path requires numpy"
)

if HAVE_NUMPY:
    from repro.fastpath import classify

ipv4_addr = st.integers(min_value=0, max_value=(1 << 32) - 1)
ipv6_addr = st.integers(min_value=0, max_value=(1 << 128) - 1)
port = st.integers(min_value=0, max_value=0xFFFF)
timestamps = st.integers(min_value=0, max_value=2**62)


@st.composite
def tcp_records(draw, ipv6=None):
    if ipv6 is None:
        ipv6 = draw(st.booleans())
    addr = ipv6_addr if ipv6 else ipv4_addr
    return PacketRecord(
        timestamp_ns=draw(timestamps),
        src_ip=draw(addr),
        dst_ip=draw(addr),
        src_port=draw(port),
        dst_port=draw(port),
        seq=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        ack=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        flags=draw(st.integers(min_value=0, max_value=0x3F)),
        payload_len=draw(st.integers(min_value=0, max_value=1200)),
        ipv6=ipv6,
    )


@st.composite
def quic_records(draw):
    return QuicPacketRecord(
        timestamp_ns=draw(timestamps),
        src_ip=draw(ipv4_addr),
        dst_ip=draw(ipv4_addr),
        src_port=draw(port),
        dst_port=draw(port),
        spin_bit=draw(st.booleans()),
        long_header=draw(st.booleans()),
        payload_len=draw(st.integers(min_value=0, max_value=1200)),
    )


def _wire(record) -> bytes:
    if isinstance(record, QuicPacketRecord):
        return quic_to_wire_bytes(record)
    return to_wire_bytes(record)


def _object_outcome(frame, ts, ethernet=True):
    """The object decoder's result: a record, None, or the exception."""
    try:
        return ("ok", from_wire_bytes(frame, ts, linktype_ethernet=ethernet))
    except Exception as exc:  # noqa: BLE001 - parity includes the error
        return ("raise", type(exc), str(exc))


def _columnar_outcome(items):
    try:
        return ("ok", decode_wire_columns(items).to_records())
    except Exception as exc:  # noqa: BLE001 - parity includes the error
        return ("raise", type(exc), str(exc))


class TestDecodeEquivalence:
    @given(st.lists(tcp_records(), max_size=16))
    def test_tcp_batch_matches_object_parse(self, records):
        items = [(r.timestamp_ns, True, to_wire_bytes(r)) for r in records]
        cols = decode_wire_columns(items)
        assert cols.to_records() == [
            from_wire_bytes(f, ts) for ts, _, f in items
        ]
        assert cols.decoded_count() == len(records)

    @given(st.lists(quic_records(), max_size=8))
    def test_quic_over_udp_skips_like_object_none(self, records):
        items = [(r.timestamp_ns, True, quic_to_wire_bytes(r))
                 for r in records]
        cols = decode_wire_columns(items)
        assert cols.to_records() == [None] * len(records)
        assert all(kind == KIND_SKIP for kind in cols.kinds)
        assert cols.decoded_count() == 0

    @given(st.lists(st.one_of(tcp_records(), quic_records()), max_size=16))
    def test_mixed_batch_matches_object_parse(self, records):
        items = [(r.timestamp_ns, True, _wire(r)) for r in records]
        cols = decode_wire_columns(items)
        assert cols.to_records() == [
            from_wire_bytes(f, ts) for ts, _, f in items
        ]

    @given(tcp_records(), st.data())
    def test_truncated_tail_same_outcome(self, record, data):
        """A cut-off frame decodes, skips, or raises identically."""
        frame = to_wire_bytes(record)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        items = [(record.timestamp_ns, True, frame[:cut])]
        obj = _object_outcome(frame[:cut], record.timestamp_ns)
        col = _columnar_outcome(items)
        if obj[0] == "ok":
            assert col == ("ok", [obj[1]])
        else:
            assert col[:2] == obj[:2]

    @given(tcp_records(), st.binary(min_size=1, max_size=7))
    def test_odd_length_tail_same_outcome(self, record, tail):
        frame = to_wire_bytes(record) + tail
        obj = _object_outcome(frame, record.timestamp_ns)
        col = _columnar_outcome([(record.timestamp_ns, True, frame)])
        if obj[0] == "ok":
            assert col == ("ok", [obj[1]])
        else:
            assert col[:2] == obj[:2]

    @given(st.binary(max_size=128), st.booleans())
    def test_arbitrary_bytes_same_outcome(self, blob, ethernet):
        obj = _object_outcome(blob, 7, ethernet)
        col = _columnar_outcome([(7, ethernet, blob)])
        if obj[0] == "ok":
            assert col == ("ok", [obj[1]])
        else:
            assert col[:2] == obj[:2]

    @given(st.lists(tcp_records(), max_size=16))
    def test_records_to_columns_round_trip(self, records):
        padded = []
        for record in records:
            padded.append(record)
            padded.append(None)  # skip rows interleave like real decode
        cols = records_to_columns(padded)
        assert cols.to_records() == padded
        assert cols.decoded_count() == len(records)


class TestClassifyScalarTwins:
    """Every vectorised hash equals its scalar twin, row for row."""

    @given(st.lists(tcp_records(ipv6=False), min_size=1, max_size=16))
    def test_flow_crcs_and_signatures(self, records):
        cols = records_to_columns(records)
        assert all(kind == KIND_VEC for kind in cols.kinds)
        crcs = classify.flow_crcs(cols).tolist()
        rcrcs = classify.flow_crcs(cols, reverse=True).tolist()
        sigs = classify.signatures(cols).tolist()
        rsigs = classify.signatures(cols, reverse=True).tolist()
        for i, record in enumerate(records):
            flow = flow_of(record)
            assert crcs[i] == flow.key_crc
            assert rcrcs[i] == flow.reversed().key_crc
            assert sigs[i] == flow.signature
            assert rsigs[i] == flow.reversed().signature
            assert sigs[i] == signature32(flow.key_bytes())

    @given(st.lists(tcp_records(ipv6=False), min_size=1, max_size=16))
    def test_mix32_and_stage_indices(self, records):
        cols = records_to_columns(records)
        crcs = classify.flow_crcs(cols)
        mixed = classify.mix32(crcs).tolist()
        for crc, mix in zip(crcs.tolist(), mixed):
            assert mix == _mix32(crc)

    @given(st.lists(tcp_records(ipv6=False), min_size=1, max_size=16))
    def test_pt_match_crcs_and_eack(self, records):
        cols = records_to_columns(records)
        sigs = classify.signatures(cols)
        match = classify.pt_match_crcs(sigs, cols.ack).tolist()
        eacks = classify.eack_values(cols).tolist()
        for i, record in enumerate(records):
            sig = flow_of(record).signature
            assert match[i] == zlib.crc32(pack2_u32(sig, record.ack))
            assert eacks[i] == record.eack

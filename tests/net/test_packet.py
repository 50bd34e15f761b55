"""Tests for PacketRecord and wire conversion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import tcp as tcpf
from repro.net.packet import (
    NS_PER_MS,
    NS_PER_SEC,
    PacketRecord,
    _decode_layers,
    from_wire_bytes,
    sorted_by_time,
    to_wire_bytes,
)
from tests.net.wire_frames import damaged_frames, outcome, timestamps


def make_record(**overrides):
    base = dict(
        timestamp_ns=1_000_000,
        src_ip=0x0A000001,
        dst_ip=0x10000001,
        src_port=40000,
        dst_port=443,
        seq=1000,
        ack=500,
        flags=tcpf.FLAG_ACK,
        payload_len=100,
    )
    base.update(overrides)
    return PacketRecord(**base)


class TestSeqAccounting:
    def test_plain_data(self):
        record = make_record()
        assert record.seq_consumed == 100
        assert record.eack == 1100
        assert record.carries_data

    def test_syn_consumes_one(self):
        record = make_record(flags=tcpf.FLAG_SYN, payload_len=0)
        assert record.seq_consumed == 1
        assert record.eack == 1001
        assert record.carries_data

    def test_fin_with_payload(self):
        record = make_record(flags=tcpf.FLAG_FIN | tcpf.FLAG_ACK, payload_len=10)
        assert record.seq_consumed == 11

    def test_pure_ack_carries_nothing(self):
        record = make_record(payload_len=0)
        assert not record.carries_data
        assert record.eack == record.seq

    def test_eack_wraps(self):
        record = make_record(seq=(1 << 32) - 50, payload_len=100)
        assert record.eack == 50

    def test_flag_properties(self):
        record = make_record(flags=tcpf.FLAG_RST)
        assert record.rst and not record.syn and not record.has_ack


class TestDescribe:
    def test_contains_addresses_and_flags(self):
        text = make_record().describe()
        assert "10.0.0.1:40000" in text
        assert "ACK" in text
        assert "len=100" in text

    def test_ipv6_formatting(self):
        record = make_record(src_ip=1, dst_ip=2, ipv6=True)
        assert "::1" in record.describe()


class TestWireRoundtrip:
    def test_ipv4_roundtrip(self):
        record = make_record()
        back = from_wire_bytes(to_wire_bytes(record), record.timestamp_ns)
        assert back == record

    def test_ipv6_roundtrip(self):
        record = make_record(src_ip=1 << 64, dst_ip=7, ipv6=True)
        back = from_wire_bytes(to_wire_bytes(record), record.timestamp_ns)
        assert back == record

    def test_non_tcp_returns_none(self):
        from repro.net.ethernet import EthernetFrame
        from repro.net.ipv4 import IPv4Packet, PROTO_UDP

        ip = IPv4Packet(src=1, dst=2, proto=PROTO_UDP, payload=b"\x00" * 8)
        frame = EthernetFrame(payload=ip.encode())
        assert from_wire_bytes(frame.encode(), 0) is None

    def test_arp_returns_none(self):
        from repro.net.ethernet import ETHERTYPE_ARP, EthernetFrame

        frame = EthernetFrame(ethertype=ETHERTYPE_ARP, payload=b"\x00" * 28)
        assert from_wire_bytes(frame.encode(), 0) is None

    def test_raw_ip_linktype(self):
        record = make_record()
        eth = to_wire_bytes(record)
        raw_ip = eth[14:]  # strip the Ethernet header
        back = from_wire_bytes(raw_ip, record.timestamp_ns,
                               linktype_ethernet=False)
        assert back == record

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=300),
    )
    def test_roundtrip_property(self, seq, ack, port, payload_len):
        record = make_record(seq=seq, ack=ack, src_port=port,
                             payload_len=payload_len)
        assert from_wire_bytes(to_wire_bytes(record), record.timestamp_ns) == record


class TestFixedParse:
    """``from_wire_bytes`` takes the fixed IPv4/TCP parse first; on every
    frame it must answer as the layered codec does."""

    @settings(max_examples=300)
    @given(damaged_frames(), timestamps)
    def test_decode_is_the_layered_codec(self, damaged, ts):
        frame, ethernet = damaged
        assert (outcome(from_wire_bytes, frame, ts,
                        linktype_ethernet=ethernet)
                == outcome(_decode_layers, frame, ts,
                           linktype_ethernet=ethernet))


class TestHelpers:
    def test_sorted_by_time(self):
        records = [make_record(timestamp_ns=t) for t in (30, 10, 20)]
        ordered = sorted_by_time(iter(records))
        assert [r.timestamp_ns for r in ordered] == [10, 20, 30]

    def test_constants(self):
        assert NS_PER_SEC == 1_000 * NS_PER_MS

"""Frames at the edges of the fixed IPv4/TCP header parse.

Shared by the decoder's own tests (``tests/net/test_packet.py``) and the
cluster's byte route (``tests/cluster/test_wire_fastpath.py``): frames
built by the repo's own codecs, then damaged (truncated, header bytes
overwritten, options inserted, IPv6, UDP, raw-IP linktype, NS/CWR/ECE
flags), and :func:`outcome` to compare two decoders on them result for
result and error for error.
"""

from hypothesis import strategies as st

from repro.net import tcp as tcpf
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import PROTO_TCP, IPv4Packet
from repro.net.packet import PacketRecord, to_wire_bytes
from repro.quic.packet import QuicPacketRecord
from repro.quic.wire import quic_to_wire_bytes

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


#: Offsets (in an Ethernet frame) of the bytes the fixed parse decides
#: on: ethertype, version/IHL, total length, protocol, data offset.
DECIDING_BYTES = (12, 13, 14, 16, 17, 23, 46)


@st.composite
def damaged_frames(draw):
    """``(frame, linktype_is_ethernet)`` around the fixed parse's edges."""
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
        frame = to_wire_bytes(record._replace(
            src_ip=(1 << 100) | record.src_ip,
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


def outcome(function, *args, **kwargs):
    """A call's result, or the exception it raised, as comparable data."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - parity includes the error
        return type(exc), str(exc)

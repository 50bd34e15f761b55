"""QUIC capture decoding: pcap/pcapng frames → :class:`QuicPacketRecord`.

An on-path observer of QUIC sees UDP datagrams whose first payload byte
is plaintext (RFC 9000 §17): bit 0x80 distinguishes long-header
(handshake) packets from short-header ones, and — on short headers —
bit 0x20 is the spin bit.  That single byte is all the spin-bit monitor
needs, so decoding stops there; everything past it stays opaque
ciphertext.

Scope mirrors the paper's §7 evaluation: IPv4 only (IPv6 datagrams are
skipped, like non-UDP traffic), and every UDP datagram is treated as
QUIC — a vantage-point filter (port 443, known servers) is the
caller's job, exactly as with tcpdump.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from ..net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from ..net.ipv4 import PROTO_UDP, IPv4Packet
from ..net.pcap import PathLike
from ..net.pcapng import read_decoded
from .packet import QuicPacketRecord

_UDP_HEADER = struct.Struct("!HHHH")

#: RFC 9000 §17 first-byte masks (the plaintext bits).
HEADER_FORM_BIT = 0x80  # 1 = long header (no spin bit)
FIXED_BIT = 0x40  # always 1 in QUIC v1
SPIN_BIT = 0x20  # short headers only


def quic_from_wire_bytes(
    data: bytes, timestamp_ns: int, *, linktype_ethernet: bool = True
) -> Optional[QuicPacketRecord]:
    """Decode one captured frame into a QUIC record.

    Returns ``None`` for anything that is not an IPv4 UDP datagram with
    at least one payload byte (the observer ignores it); raises
    :class:`ValueError` for frames that claim to be UDP but are
    malformed.
    """
    if linktype_ethernet:
        frame = EthernetFrame.decode(data)
        if frame.ethertype != ETHERTYPE_IPV4:
            return None
        ip_bytes = frame.payload
    else:
        if not data or (data[0] >> 4) != 4:
            return None
        ip_bytes = data
    ip4 = IPv4Packet.decode(ip_bytes)
    if ip4.proto != PROTO_UDP:
        return None
    datagram = ip4.payload
    if len(datagram) < _UDP_HEADER.size:
        raise ValueError(f"UDP datagram too short: {len(datagram)} bytes")
    src_port, dst_port, udp_len, _checksum = _UDP_HEADER.unpack_from(datagram)
    if udp_len < _UDP_HEADER.size or udp_len > len(datagram):
        raise ValueError(f"bad UDP length: {udp_len}")
    payload = datagram[_UDP_HEADER.size:udp_len]
    if not payload:
        return None  # no QUIC header byte to read
    first = payload[0]
    long_header = bool(first & HEADER_FORM_BIT)
    return QuicPacketRecord(
        timestamp_ns=timestamp_ns,
        src_ip=ip4.src,
        dst_ip=ip4.dst,
        src_port=src_port,
        dst_port=dst_port,
        spin_bit=False if long_header else bool(first & SPIN_BIT),
        long_header=long_header,
        payload_len=len(payload),
    )


def quic_to_wire_bytes(record: QuicPacketRecord) -> bytes:
    """Serialize a record to an Ethernet frame.

    The inverse of :func:`quic_from_wire_bytes` up to payload contents:
    the first byte carries the header form / fixed / spin bits and the
    rest is zero padding out to ``payload_len`` (a real packet's
    ciphertext is irrelevant to the observer).  The UDP checksum is
    zero — "not computed", legal over IPv4.
    """
    first = HEADER_FORM_BIT | FIXED_BIT if record.long_header else (
        FIXED_BIT | (SPIN_BIT if record.spin_bit else 0)
    )
    length = max(record.payload_len, 1)
    payload = bytes([first]) + b"\x00" * (length - 1)
    datagram = _UDP_HEADER.pack(
        record.src_port,
        record.dst_port,
        _UDP_HEADER.size + len(payload),
        0,
    ) + payload
    ip4 = IPv4Packet(
        src=record.src_ip,
        dst=record.dst_ip,
        proto=PROTO_UDP,
        payload=datagram,
    )
    return EthernetFrame(ethertype=ETHERTYPE_IPV4, payload=ip4.encode()).encode()


def read_quic_capture(path: PathLike) -> Iterator[QuicPacketRecord]:
    """Yield QUIC records from a pcap or pcapng file on disk.

    Non-UDP/non-IPv4 frames are skipped, so a mixed TCP+QUIC capture
    decodes to just its QUIC datagrams.
    """
    return read_decoded(path, quic_from_wire_bytes)


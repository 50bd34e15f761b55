"""The packet record consumed by every monitor in this library.

``PacketRecord`` is the single, codec-independent view of one TCP packet
as seen at the monitoring vantage point: a nanosecond timestamp plus the
handful of header fields RTT matching needs.  Both the synthetic trace
generators (:mod:`repro.traces`) and the pcap decoder
(:func:`from_wire_bytes`) produce this type; Dart, tcptrace, and the
strawman all consume it.

Timestamps are integer nanoseconds throughout the library — the Tofino
reports RTTs at nanosecond granularity (paper §8) and integers keep the
simulation deterministic.
"""

from __future__ import annotations

import struct
from typing import Iterator, NamedTuple, Optional, Tuple

from . import tcp as tcp_mod
from .ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, EthernetFrame
from .ethernet import HEADER_LEN as ETH_HEADER_LEN
from .inet import int_to_ipv4, int_to_ipv6
from .ipv4 import PROTO_TCP, IPv4Packet
from .ipv6 import IPv6Packet
from .tcp import TcpSegment, flag_names

NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


class PacketRecord(NamedTuple):
    """One observed TCP packet: an immutable tuple of header fields.

    ``payload_len`` counts TCP payload bytes only; SYN and FIN flags each
    consume one unit of sequence space, which :attr:`seq_consumed` and
    :attr:`eack` account for.  Decoders build it in C, with
    ``tuple.__new__(PacketRecord, (...all ten fields))``.
    """

    timestamp_ns: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload_len: int
    ipv6: bool = False

    @property
    def syn(self) -> bool:
        return bool(self.flags & tcp_mod.FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & tcp_mod.FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & tcp_mod.FLAG_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & tcp_mod.FLAG_ACK)

    @property
    def seq_consumed(self) -> int:
        """Sequence space consumed: payload bytes plus SYN/FIN flags."""
        return self.payload_len + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def carries_data(self) -> bool:
        """True when the packet advances the sender's sequence space,
        i.e. it can be the SEQ side of an RTT sample."""
        return self.seq_consumed > 0

    @property
    def eack(self) -> int:
        """The expected ACK number for this packet (paper Fig 2)."""
        return (self.seq + self.seq_consumed) & 0xFFFFFFFF

    def describe(self) -> str:
        """One-line human-readable rendering for logs and examples."""
        fmt = int_to_ipv6 if self.ipv6 else int_to_ipv4
        return (
            f"{self.timestamp_ns / NS_PER_SEC:.6f} "
            f"{fmt(self.src_ip)}:{self.src_port} > "
            f"{fmt(self.dst_ip)}:{self.dst_port} "
            f"[{flag_names(self.flags)}] seq={self.seq} ack={self.ack} "
            f"len={self.payload_len}"
        )


#: The 40 fixed header bytes of an option-free IPv4/TCP packet:
#: version/IHL byte, total length, protocol, src, dst, sport, dport,
#: seq, ack, data-offset/flags.
_V4_TCP = struct.Struct("!BxH5xB2xIIHHIIH")


def plain_v4_tcp(
    data: bytes, start: int = 0, end: Optional[int] = None,
    linktype_ethernet: bool = True,
) -> Optional[Tuple[int, ...]]:
    """``(src, dst, sport, dport, seq, ack, flags, payload_len)`` of an
    option-free IPv4/TCP frame, else ``None``.

    The frame is ``data[start:end]`` (all of ``data`` by default), read
    where it lies.  Takes exactly the frames
    :func:`repro.net.columnar._scan_v4_tcp` marks ``KIND_VEC`` — IHL 5,
    protocol TCP, data offset 5, a total length that covers both
    headers and fits the captured bytes — for which one read at fixed
    offsets *is* the layered decode.  It is the one header parse:
    :func:`from_wire_bytes` takes it first,
    :func:`repro.net.pcap.read_packets` runs it on the reader's buffer,
    and
    :meth:`repro.cluster.sharding.ByteBatchDispatcher.dispatch_wire`
    ships its fields as a packed record.  ``None`` (options, IPv6,
    non-TCP, short, malformed) leaves the frame to the layered codec.
    """
    if end is None:
        end = len(data)
    ip_at = start
    if linktype_ethernet:
        if data[start + 12:start + 14] != b"\x08\x00":  # ETHERTYPE_IPV4
            return None
        ip_at = start + ETH_HEADER_LEN
    ip_len = end - ip_at
    if ip_len < 40:
        return None
    (version_ihl, total_len, protocol, src, dst, sport, dport, seq, ack,
     offset_flags) = _V4_TCP.unpack_from(data, ip_at)
    if (version_ihl != 0x45 or protocol != PROTO_TCP
            or offset_flags >> 12 != 5 or not 40 <= total_len <= ip_len):
        return None
    return (src, dst, sport, dport, seq, ack, offset_flags & 0x01FF,
            total_len - 40)


def from_wire_bytes(
    data: bytes, timestamp_ns: int, *, linktype_ethernet: bool = True
) -> Optional[PacketRecord]:
    """Decode a raw captured frame into a record.

    An option-free IPv4/TCP frame is read by :func:`plain_v4_tcp`, one
    ``struct`` read; every other frame (options, IPv6, non-TCP, short or
    malformed) goes through the layered codec, which returns None for
    non-TCP traffic (the monitor ignores it) and raises ValueError for
    frames that claim to be TCP but are malformed.  Both routes yield
    the same record for any frame the first one takes.
    """
    fields = plain_v4_tcp(data, 0, len(data), linktype_ethernet)
    if fields is None:
        return _decode_layers(data, timestamp_ns,
                              linktype_ethernet=linktype_ethernet)
    return tuple.__new__(PacketRecord, (timestamp_ns, *fields, False))


def _decode_layers(
    data: bytes, timestamp_ns: int, *, linktype_ethernet: bool = True
) -> Optional[PacketRecord]:
    """:func:`from_wire_bytes` through the Ethernet, IP and TCP codecs."""
    if linktype_ethernet:
        frame = EthernetFrame.decode(data)
        if frame.ethertype == ETHERTYPE_IPV4:
            ip_bytes = frame.payload
            ipv6 = False
        elif frame.ethertype == ETHERTYPE_IPV6:
            ip_bytes = frame.payload
            ipv6 = True
        else:
            return None
    else:
        if not data:
            return None
        version = data[0] >> 4
        if version == 4:
            ip_bytes, ipv6 = data, False
        elif version == 6:
            ip_bytes, ipv6 = data, True
        else:
            return None

    ip: IPv4Packet | IPv6Packet
    if ipv6:
        ip = IPv6Packet.decode(ip_bytes)
        if ip.next_header != PROTO_TCP:
            return None
    else:
        ip = IPv4Packet.decode(ip_bytes)
        if ip.proto != PROTO_TCP:
            return None
    segment = TcpSegment.decode(ip.payload)
    return PacketRecord(
        timestamp_ns=timestamp_ns,
        src_ip=ip.src,
        dst_ip=ip.dst,
        src_port=segment.src_port,
        dst_port=segment.dst_port,
        seq=segment.seq,
        ack=segment.ack,
        flags=segment.flags,
        payload_len=len(segment.payload),
        ipv6=ipv6,
    )


def to_wire_bytes(record: PacketRecord, *, payload_byte: bytes = b"\x00") -> bytes:
    """Serialize a record to an Ethernet frame (synthetic payload).

    The inverse of :func:`from_wire_bytes` up to payload contents; used to
    write synthetic traces out as real pcap files.
    """
    segment = TcpSegment(
        src_port=record.src_port,
        dst_port=record.dst_port,
        seq=record.seq,
        ack=record.ack,
        flags=record.flags,
        payload=payload_byte * record.payload_len,
    )
    if record.ipv6:
        ip6 = IPv6Packet(
            src=record.src_ip,
            dst=record.dst_ip,
            next_header=PROTO_TCP,
            payload=segment.encode(
                src_addr=record.src_ip.to_bytes(16, "big"),
                dst_addr=record.dst_ip.to_bytes(16, "big"),
            ),
        )
        frame = EthernetFrame(ethertype=ETHERTYPE_IPV6, payload=ip6.encode())
    else:
        ip4 = IPv4Packet(
            src=record.src_ip,
            dst=record.dst_ip,
            proto=PROTO_TCP,
            payload=segment.encode(
                src_addr=record.src_ip.to_bytes(4, "big"),
                dst_addr=record.dst_ip.to_bytes(4, "big"),
            ),
        )
        frame = EthernetFrame(ethertype=ETHERTYPE_IPV4, payload=ip4.encode())
    return frame.encode()


def sorted_by_time(records: Iterator[PacketRecord]) -> list:
    """Return records sorted by timestamp (stable for equal stamps)."""
    return sorted(records, key=lambda r: r.timestamp_ns)

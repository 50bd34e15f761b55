"""Packet substrate: header codecs, checksums, pcap I/O, packet records.

This package provides the byte-level networking substrate the rest of the
library is built on.  The central type is :class:`~repro.net.packet.PacketRecord`,
the codec-independent view of one TCP packet that all monitors consume.
"""

from .ethernet import EthernetFrame
from .framing import (
    BatchEncoder,
    FrameError,
    decode_batch,
    encode_records,
)
from .inet import (
    format_prefix,
    int_to_ipv4,
    int_to_ipv6,
    ipv4_to_int,
    ipv6_to_int,
    prefix_of,
)
from .ipv4 import IPv4Packet
from .ipv6 import IPv6Packet
from .packet import (
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    PacketRecord,
    from_wire_bytes,
    to_wire_bytes,
)
from .pcap import (
    PcapFormatError,
    PcapReader,
    PcapWriter,
    TruncatedCapture,
    append_packets,
    read_packets,
    write_packets,
)
from .pcapng import read_any_capture, sniff_format
from .scan import canonical_key_bytes, scan_shard_key
from .tcp import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpOptions,
    TcpSegment,
)

__all__ = [
    "BatchEncoder",
    "EthernetFrame",
    "FrameError",
    "IPv4Packet",
    "IPv6Packet",
    "PacketRecord",
    "PcapFormatError",
    "PcapReader",
    "PcapWriter",
    "TruncatedCapture",
    "TcpOptions",
    "TcpSegment",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "append_packets",
    "canonical_key_bytes",
    "decode_batch",
    "encode_records",
    "format_prefix",
    "from_wire_bytes",
    "int_to_ipv4",
    "int_to_ipv6",
    "ipv4_to_int",
    "ipv6_to_int",
    "prefix_of",
    "read_any_capture",
    "read_packets",
    "scan_shard_key",
    "sniff_format",
    "to_wire_bytes",
    "write_packets",
]

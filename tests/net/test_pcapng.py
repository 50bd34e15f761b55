"""Tests for the pcapng reader (hand-built files, both byte orders)."""

import struct

import pytest

from repro.net import tcp as tcpf
from repro.net.packet import PacketRecord, to_wire_bytes
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PcapFormatError,
    PcapWriter,
    write_packets,
)
from repro.net.pcapng import (
    MAX_BLOCK_BYTES,
    read_any_capture,
    read_any_frames,
    sniff_format,
)


def pad4(data: bytes) -> bytes:
    return data + b"\x00" * ((4 - len(data) % 4) % 4)


class PcapngBuilder:
    """Minimal pcapng writer used to exercise the reader."""

    def __init__(self, order="<"):
        self.order = order
        self.blocks = []

    def _block(self, block_type: int, body: bytes) -> None:
        body = pad4(body)
        total = 12 + len(body)
        self.blocks.append(
            struct.pack(self.order + "II", block_type, total)
            + body
            + struct.pack(self.order + "I", total)
        )

    def shb(self) -> "PcapngBuilder":
        body = struct.pack(self.order + "IHHq", 0x1A2B3C4D, 1, 0, -1)
        self._block(0x0A0D0D0A, body)
        return self

    def idb(self, linktype=LINKTYPE_ETHERNET, tsresol=None) -> "PcapngBuilder":
        body = struct.pack(self.order + "HHI", linktype, 0, 0)
        if tsresol is not None:
            body += struct.pack(self.order + "HH", 9, 1) + bytes([tsresol])
            body = pad4(body)
            body += struct.pack(self.order + "HH", 0, 0)
        self._block(0x00000001, body)
        return self

    def epb(self, timestamp_ticks: int, frame: bytes,
            interface=0) -> "PcapngBuilder":
        body = struct.pack(
            self.order + "IIIII",
            interface,
            timestamp_ticks >> 32,
            timestamp_ticks & 0xFFFFFFFF,
            len(frame),
            len(frame),
        ) + frame
        self._block(0x00000006, body)
        return self

    def spb(self, frame: bytes) -> "PcapngBuilder":
        self._block(0x00000003, struct.pack(self.order + "I", len(frame))
                    + frame)
        return self

    def custom(self, block_type=0x0BAD) -> "PcapngBuilder":
        self._block(block_type, b"\x01\x02\x03\x04")
        return self

    def write(self, path) -> None:
        path.write_bytes(b"".join(self.blocks))


def make_record(t_us=1_500_000):
    return PacketRecord(
        timestamp_ns=t_us * 1000, src_ip=0x0A000001, dst_ip=0x10000001,
        src_port=40000, dst_port=443, seq=100, ack=7,
        flags=tcpf.FLAG_ACK, payload_len=5,
    )


class TestPcapngReading:
    def test_microsecond_default_resolution(self, tmp_path):
        record = make_record()
        path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb().idb()
         .epb(record.timestamp_ns // 1000, to_wire_bytes(record))
         .write(path))
        (back,) = list(read_any_capture(path))
        assert back == record

    def test_nanosecond_tsresol_option(self, tmp_path):
        record = make_record()
        path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb().idb(tsresol=9)
         .epb(record.timestamp_ns, to_wire_bytes(record))
         .write(path))
        (back,) = list(read_any_capture(path))
        assert back.timestamp_ns == record.timestamp_ns

    def test_big_endian_section(self, tmp_path):
        record = make_record()
        path = tmp_path / "t.pcapng"
        (PcapngBuilder(order=">").shb().idb()
         .epb(record.timestamp_ns // 1000, to_wire_bytes(record))
         .write(path))
        (back,) = list(read_any_capture(path))
        assert back == record

    def test_unknown_blocks_skipped(self, tmp_path):
        record = make_record()
        path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb().custom().idb().custom()
         .epb(record.timestamp_ns // 1000, to_wire_bytes(record))
         .write(path))
        assert len(list(read_any_capture(path))) == 1

    def test_simple_packet_block(self, tmp_path):
        record = make_record()
        path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb().idb().spb(to_wire_bytes(record))
         .write(path))
        (back,) = list(read_any_capture(path))
        assert back.timestamp_ns == 0  # SPBs carry no timestamp
        assert back.seq == record.seq

    def test_multiple_packets_in_order(self, tmp_path):
        records = [make_record(t_us=1_000_000 + i) for i in range(5)]
        builder = PcapngBuilder().shb().idb()
        for record in records:
            builder.epb(record.timestamp_ns // 1000, to_wire_bytes(record))
        path = tmp_path / "t.pcapng"
        builder.write(path)
        assert list(read_any_capture(path)) == records

    def test_non_tcp_frames_skipped(self, tmp_path):
        from repro.net.ethernet import ETHERTYPE_ARP, EthernetFrame

        arp = EthernetFrame(ethertype=ETHERTYPE_ARP, payload=b"\0" * 28)
        path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb().idb().epb(0, arp.encode()).write(path))
        assert list(read_any_capture(path)) == []

    def test_epb_before_idb_rejected(self, tmp_path):
        record = make_record()
        path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb()
         .epb(0, to_wire_bytes(record))
         .write(path))
        with pytest.raises(PcapFormatError):
            list(read_any_capture(path))

    def test_not_pcapng_rejected(self, tmp_path):
        path = tmp_path / "t.pcapng"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(PcapFormatError):
            list(read_any_capture(path))


class TestFormatSniffing:
    def test_sniff_pcap(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_packets(path, [make_record()])
        assert sniff_format(path) == "pcap"

    def test_sniff_pcapng(self, tmp_path):
        path = tmp_path / "t.pcapng"
        PcapngBuilder().shb().idb().write(path)
        assert sniff_format(path) == "pcapng"

    def test_sniff_garbage(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"GARBAGE!")
        with pytest.raises(PcapFormatError):
            sniff_format(path)

    def test_read_any_capture_both_formats(self, tmp_path):
        record = make_record()
        pcap_path = tmp_path / "t.pcap"
        write_packets(pcap_path, [record])
        ng_path = tmp_path / "t.pcapng"
        (PcapngBuilder().shb().idb(tsresol=9)
         .epb(record.timestamp_ns, to_wire_bytes(record)).write(ng_path))
        assert list(read_any_capture(pcap_path)) == [record]
        assert list(read_any_capture(ng_path)) == [record]


class TestLinktypePolicy:
    """One policy for every reader: Ethernet and raw IP decode, a
    pcapng frame on any other interface is skipped, a pcap file on any
    other linktype is refused."""

    def test_mixed_pcapng_pins_all_three_readers(self, tmp_path):
        from repro.quic import QuicPacketRecord
        from repro.quic.wire import quic_to_wire_bytes, read_quic_capture

        tcp = [make_record(t_us=1_000_000 + i) for i in range(3)]
        quic = QuicPacketRecord(
            timestamp_ns=1_000_001_500, src_ip=0x0A000001,
            dst_ip=0x10000001, src_port=50000, dst_port=443,
            spin_bit=True, long_header=False, payload_len=32,
        )
        eth = [to_wire_bytes(r) for r in tcp]
        quic_frame = quic_to_wire_bytes(quic)
        path = tmp_path / "mixed.pcapng"
        (PcapngBuilder().shb()
         .idb(tsresol=9)                         # 0: Ethernet
         .idb(linktype=LINKTYPE_RAW, tsresol=9)  # 1: raw IP
         .idb(linktype=127, tsresol=9)           # 2: radiotap, unsupported
         .epb(tcp[0].timestamp_ns, eth[0])
         .epb(tcp[1].timestamp_ns, eth[1][14:], interface=1)
         .epb(quic.timestamp_ns, quic_frame)
         .epb(quic.timestamp_ns, quic_frame[14:], interface=1)
         .epb(tcp[2].timestamp_ns, eth[2], interface=2)
         .epb(quic.timestamp_ns, quic_frame, interface=2)
         .write(path))
        assert list(read_any_frames(path)) == [
            (tcp[0].timestamp_ns, True, eth[0]),
            (tcp[1].timestamp_ns, False, eth[1][14:]),
            (quic.timestamp_ns, True, quic_frame),
            (quic.timestamp_ns, False, quic_frame[14:]),
        ]
        assert list(read_any_capture(path)) == tcp[:2]
        assert list(read_quic_capture(path)) == [quic, quic]

    def test_pcap_on_an_unsupported_linktype_is_refused(self, tmp_path):
        from repro.quic.wire import read_quic_capture

        path = tmp_path / "odd.pcap"
        with open(path, "wb") as stream:
            PcapWriter(stream, linktype=127).write(0, b"\x00" * 64)
        for reader in (read_any_frames, read_any_capture, read_quic_capture):
            with pytest.raises(PcapFormatError, match="unsupported linktype"):
                list(reader(path))


class TestBlockLengthBound:
    def test_garbage_block_length_is_a_format_error(self, tmp_path):
        record = make_record()
        builder = (PcapngBuilder().shb().idb()
                   .epb(0, to_wire_bytes(record)))
        path = tmp_path / "t.pcapng"
        path.write_bytes(b"".join(builder.blocks) + struct.pack(
            "<II", 0x00000006, MAX_BLOCK_BYTES + 4) + b"\x00" * 64)
        frames = read_any_frames(path)
        assert next(frames)[2] == to_wire_bytes(record)
        # Not TruncatedCapture: a tail would wait on that forever.
        with pytest.raises(PcapFormatError, match="block length") as info:
            next(frames)
        assert type(info.value) is PcapFormatError

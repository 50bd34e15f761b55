"""Tests for pcap file reading and writing."""

import io
import struct

import pytest

from repro.net import tcp as tcpf
from repro.net.packet import PacketRecord
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    MAGIC_MICRO,
    MAGIC_NANO,
    PcapFormatError,
    PcapReader,
    PcapWriter,
    read_packets,
    write_packets,
)


def make_record(i=0):
    return PacketRecord(
        timestamp_ns=1_500_000_000 + i * 1_000,
        src_ip=0x0A000001 + i,
        dst_ip=0x10000001,
        src_port=40000,
        dst_port=443,
        seq=1000 * i,
        ack=0,
        flags=tcpf.FLAG_ACK,
        payload_len=i % 7,
    )


class TestRoundtrip:
    def test_write_read_nanosecond(self, tmp_path):
        path = tmp_path / "t.pcap"
        records = [make_record(i) for i in range(25)]
        assert write_packets(path, records) == 25
        back = list(read_packets(path))
        assert back == records

    def test_write_read_microsecond(self, tmp_path):
        path = tmp_path / "t.pcap"
        records = [make_record(i) for i in range(5)]
        write_packets(path, records, nanosecond=False)
        back = list(read_packets(path))
        # Microsecond resolution truncates sub-us digits.
        assert [r.timestamp_ns // 1000 for r in back] == [
            r.timestamp_ns // 1000 for r in records
        ]


class TestHeaderParsing:
    def _header(self, magic, linktype=LINKTYPE_ETHERNET, order="<"):
        return struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)

    def test_nano_magic_detected(self):
        reader = PcapReader(io.BytesIO(self._header(MAGIC_NANO)))
        assert reader.header.nanosecond

    def test_micro_magic_detected(self):
        reader = PcapReader(io.BytesIO(self._header(MAGIC_MICRO)))
        assert not reader.header.nanosecond

    def test_big_endian_detected(self):
        reader = PcapReader(io.BytesIO(self._header(MAGIC_MICRO, order=">")))
        assert reader.header.byte_order == ">"
        assert reader.header.linktype == LINKTYPE_ETHERNET

    def test_bad_magic_raises(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(self._header(0xDEADBEEF)))

    def test_short_file_raises(self):
        with pytest.raises(PcapFormatError):
            PcapReader(io.BytesIO(b"\x00" * 10))


class TestRecordParsing:
    def test_truncated_record_header(self):
        stream = io.BytesIO()
        PcapWriter(stream)
        stream.write(b"\x00" * 8)  # half a record header
        stream.seek(0)
        reader = PcapReader(stream)
        with pytest.raises(PcapFormatError):
            next(reader)

    def test_truncated_record_body(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write(0, b"\xab" * 40)
        data = stream.getvalue()[:-10]
        reader = PcapReader(io.BytesIO(data))
        with pytest.raises(PcapFormatError):
            next(reader)

    @pytest.mark.parametrize("snaplen,incl_len", [
        (65535, 65536),        # the header's own snaplen
        (0, 262145),           # header says "unlimited": pcap's maximum
        (1 << 31, 262145),     # a garbage snaplen does not lift the bound
    ])
    def test_record_longer_than_snaplen_is_a_format_error(self, snaplen,
                                                          incl_len):
        stream = io.BytesIO()
        writer = PcapWriter(stream, snaplen=snaplen)
        writer.write(1, b"good")
        stream.write(struct.pack("<IIII", 0, 0, incl_len, incl_len))
        stream.write(b"\x00" * 100)
        stream.seek(0)
        reader = PcapReader(stream)
        assert next(reader) == (1, b"good")
        # Not TruncatedCapture: a tail would wait on that forever.
        with pytest.raises(PcapFormatError, match="snaplen") as info:
            next(reader)
        assert type(info.value) is PcapFormatError

    def test_timestamps_preserved(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write(3_123_456_789, b"frame")
        stream.seek(0)
        reader = PcapReader(stream)
        ts, frame = next(reader)
        assert ts == 3_123_456_789
        assert frame == b"frame"

    def test_iteration_stops_at_eof(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write(1, b"a")
        writer.write(2, b"bc")
        stream.seek(0)
        assert len(list(PcapReader(stream))) == 2

    def test_unsupported_linktype_rejected(self, tmp_path):
        path = tmp_path / "odd.pcap"
        with open(path, "wb") as stream:
            PcapWriter(stream, linktype=147)  # DLT_USER0
        with pytest.raises(PcapFormatError):
            list(read_packets(path))

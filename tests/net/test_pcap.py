"""Tests for pcap file reading and writing."""

import io
import struct
import tempfile
from functools import lru_cache
from itertools import islice
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import pcap
from repro.net import tcp as tcpf
from repro.net.packet import PacketRecord, from_wire_bytes, to_wire_bytes
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    MAGIC_MICRO,
    MAGIC_NANO,
    PcapFormatError,
    PcapReader,
    PcapWriter,
    TruncatedCapture,
    read_packets,
    write_packets,
)
from repro.net.pcapng import FrameReader, read_any_capture
from repro.traces import CampusTraceConfig, generate_campus_trace
from tests.net.wire_frames import damaged_frames

#: What a nanosecond pcap record header can hold: 32-bit seconds.
pcap_timestamps = st.integers(min_value=0, max_value=(1 << 32) * 10**9 - 1)


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


@lru_cache(maxsize=None)
def trace_frames():
    """``(timestamp_ns, Ethernet frame)`` of a small seeded trace."""
    records = generate_campus_trace(
        CampusTraceConfig(connections=4, seed=5)).records
    return [(r.timestamp_ns, to_wire_bytes(r)) for r in records]


@st.composite
def captures(draw):
    """``(pcap bytes, frames, record offsets)``: a slice of the seeded
    trace with damaged frames of the capture's linktype mixed in."""
    ethernet = draw(st.booleans())
    frames = trace_frames()
    start = draw(st.integers(min_value=0, max_value=len(frames) - 1))
    frames = [(ts, frame if ethernet else frame[14:])
              for ts, frame in frames[start:start + draw(
                  st.integers(min_value=0, max_value=30))]]
    for frame, is_ethernet in draw(st.lists(damaged_frames(), max_size=4)):
        if is_ethernet == ethernet:
            at = draw(st.integers(min_value=0, max_value=len(frames)))
            frames.insert(at, (draw(pcap_timestamps), frame))
    stream = io.BytesIO()
    writer = PcapWriter(stream, linktype=LINKTYPE_ETHERNET if ethernet
                        else LINKTYPE_RAW)
    offsets = [stream.tell()]
    for ts, frame in frames:
        writer.write(ts, frame)
        offsets.append(stream.tell())
    return stream.getvalue(), [(ts, ethernet, f) for ts, f in frames], offsets


def read_into(frames, reader, offsets, source=None):
    """Append to ``frames`` every frame ``reader`` (or ``source``, drawn
    from it) yields, checking after each one that ``resume_offset``
    names the next record's offset; returns how many it appended."""
    before = len(frames)
    for frame in reader if source is None else source:
        frames.append(frame)
        assert reader.resume_offset == offsets[len(frames)]
    return len(frames) - before


def records_or_error(records):
    """The records an iterator yields, then the ValueError that ended
    it (``None`` at a clean end)."""
    out = []
    try:
        for record in records:
            out.append(record)
    except ValueError as exc:
        return out, (type(exc), str(exc))
    return out, None


class TestRecordWalk:
    """The pcap reader walks its block buffer in place: every way of
    reading it yields the same frames and offsets, and the in-place
    record decode answers as ``from_wire_bytes`` does frame for frame."""

    @settings(max_examples=150, deadline=None)
    @given(captures(),
           st.sampled_from([1, 7, 16, 100, 1 << 16]),
           st.lists(st.integers(min_value=1, max_value=9), min_size=1),
           st.data())
    def test_every_way_of_reading_agrees(self, capture, block, chunks, data):
        raw, written, offsets = capture
        # Small blocks put record headers and bodies across refills.
        with patch.object(pcap, "BLOCK_BYTES", block):
            single = []
            read_into(single, FrameReader(io.BytesIO(raw)), offsets)
            assert single == written

            # Chunks of random size, a fresh iteration per chunk: the
            # tail source's islice pattern.
            reader = FrameReader(io.BytesIO(raw))
            chunked = []
            for size in chunks * (len(written) + 1):
                if not read_into(chunked, reader, offsets,
                                 islice(reader, size)):
                    break
                assert reader.resume_offset == offsets[len(chunked)]
            assert chunked == written

            # Cut anywhere, meet TruncatedCapture, grow, retry.
            cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
            stream = io.BytesIO(raw[:cut])
            retried = []
            try:
                reader = FrameReader(stream)
                read_into(retried, reader, offsets)
            except TruncatedCapture as exc:
                assert exc.resume_offset == (
                    0 if cut < offsets[0] else offsets[len(retried)])
                assert stream.tell() == exc.resume_offset  # rewound
            position = stream.tell()
            stream.seek(0, io.SEEK_END)
            stream.write(raw[cut:])
            stream.seek(position)
            if cut < offsets[0]:
                reader = FrameReader(stream)
            read_into(retried, reader, offsets)
            assert retried == written

            with tempfile.TemporaryDirectory() as directory:
                path = Path(directory) / "capture.pcap"
                path.write_bytes(raw)
                decoded = records_or_error(read_any_capture(path))
        expected = records_or_error(
            record for ts, ethernet, frame in written
            if (record := from_wire_bytes(
                frame, ts, linktype_ethernet=ethernet)) is not None)
        assert decoded == expected

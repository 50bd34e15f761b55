"""Incremental reading of in-flight captures: TruncatedCapture semantics.

A growing capture (tcpdump still writing) routinely ends mid-record.
The readers must distinguish that from a malformed file: raise
:class:`TruncatedCapture` carrying the offset of the first incomplete
record, rewind to it, and parse the whole record once the bytes land —
the contract the tail source (:mod:`repro.stream.sources`) is built on.
"""

import io
import struct

import pytest

from repro.net import TruncatedCapture, append_packets
from repro.net.pcap import (
    PcapFormatError,
    PcapReader,
    read_packets,
    write_packets,
)
from repro.net.pcapng import BLOCK_SHB, PcapngReader
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=20, seed=9)
    ).records


@pytest.fixture()
def pcap_bytes(records, tmp_path):
    path = tmp_path / "full.pcap"
    write_packets(path, records)
    return path.read_bytes()


class TestPcapTruncation:
    def test_empty_file_is_truncated_at_zero(self):
        with pytest.raises(TruncatedCapture) as info:
            PcapReader(io.BytesIO(b""))
        assert info.value.resume_offset == 0

    def test_partial_global_header(self):
        with pytest.raises(TruncatedCapture) as info:
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1\x02\x00"))
        assert info.value.resume_offset == 0

    def test_mid_record_cut_reports_record_start(self, pcap_bytes):
        # Cut inside the third record's body.
        stream = io.BytesIO(pcap_bytes)
        reader = PcapReader(stream)
        next(reader)
        next(reader)
        third_start = reader.resume_offset
        cut = io.BytesIO(pcap_bytes[: third_start + 20])
        reader = PcapReader(cut)
        next(reader)
        next(reader)
        with pytest.raises(TruncatedCapture) as info:
            next(reader)
        assert info.value.resume_offset == third_start
        # The reader rewound: its own offset still points at the record.
        assert reader.resume_offset == third_start

    def test_same_reader_retries_after_growth(self, pcap_bytes):
        cut_at = len(pcap_bytes) - 7
        stream = io.BytesIO(pcap_bytes[:cut_at])
        reader = PcapReader(stream)
        consumed = []
        with pytest.raises(TruncatedCapture):
            for item in reader:
                consumed.append(item)
        # Simulate the file growing: append the missing bytes in place.
        pos = stream.tell()
        stream.seek(0, io.SEEK_END)
        stream.write(pcap_bytes[cut_at:])
        stream.seek(pos)
        remaining = list(reader)
        full = list(PcapReader(io.BytesIO(pcap_bytes)))
        assert consumed + remaining == full

    def test_skip_to_resumes_mid_file(self, pcap_bytes):
        reader = PcapReader(io.BytesIO(pcap_bytes))
        head = [next(reader) for _ in range(5)]
        offset = reader.resume_offset
        resumed = PcapReader(io.BytesIO(pcap_bytes))
        resumed.skip_to(offset)
        assert list(resumed) == list(PcapReader(io.BytesIO(pcap_bytes)))[5:]
        assert head  # sanity: we actually consumed something

    def test_skip_to_rejects_header_offsets(self, pcap_bytes):
        reader = PcapReader(io.BytesIO(pcap_bytes))
        with pytest.raises(ValueError):
            reader.skip_to(10)

    @pytest.mark.parametrize("past", [1, 16, 10**12])
    def test_skip_to_refuses_offset_past_end_of_file(self, pcap_bytes,
                                                      past):
        offset = len(pcap_bytes) + past
        reader = PcapReader(io.BytesIO(pcap_bytes))
        with pytest.raises(PcapFormatError) as info:
            reader.skip_to(offset)
        assert str(info.value) == (
            f"pcap resume offset {offset} is beyond end of file")

    def test_skip_to_refuses_offset_inside_a_record(self, pcap_bytes):
        reader = PcapReader(io.BytesIO(pcap_bytes))
        next(reader)
        second = reader.resume_offset
        for offset in (second - 1, second + 1, second + 16, second + 20):
            resumed = PcapReader(io.BytesIO(pcap_bytes))
            with pytest.raises(PcapFormatError) as info:
                resumed.skip_to(offset)
            assert str(info.value) == (
                f"pcap resume offset {offset} is not on a record boundary")

    def test_skip_to_inside_a_cut_record_is_past_end_of_file(
            self, pcap_bytes):
        # The offset is a record boundary of the whole file, but the cut
        # copy ends before it, mid-record: nothing complete reaches it.
        reader = PcapReader(io.BytesIO(pcap_bytes))
        next(reader)
        next(reader)
        offset = reader.resume_offset
        cut = PcapReader(io.BytesIO(pcap_bytes[:offset - 5]))
        with pytest.raises(PcapFormatError, match="beyond end of file"):
            cut.skip_to(offset)

    def test_skip_to_end_of_file_yields_nothing(self, pcap_bytes):
        reader = PcapReader(io.BytesIO(pcap_bytes))
        reader.skip_to(len(pcap_bytes))
        assert list(reader) == []
        assert reader.resume_offset == len(pcap_bytes)

    def test_tail_resume_past_a_shorter_file_starts_fresh(self, pcap_bytes,
                                                          tmp_path):
        from repro.stream import TailCaptureSource

        path = tmp_path / "rotated.pcap"
        path.write_bytes(pcap_bytes)
        source = TailCaptureSource(path, resume_offset=len(pcap_bytes) + 1,
                                   idle_timeout_s=0.0, sleep=lambda s: None)
        try:
            frames = [frame for chunk in source.chunks(64) for frame in chunk]
        finally:
            source.close()
        assert [(ts, frame) for ts, _, frame in frames] == list(
            PcapReader(io.BytesIO(pcap_bytes)))


class TestAppendPackets:
    def test_append_matches_single_write(self, records, tmp_path):
        whole = tmp_path / "whole.pcap"
        grown = tmp_path / "grown.pcap"
        write_packets(whole, records)
        half = len(records) // 2
        write_packets(grown, records[:half])
        appended = append_packets(grown, records[half:])
        assert appended == len(records) - half
        assert grown.read_bytes() == whole.read_bytes()
        assert len(list(read_packets(grown))) == len(
            list(read_packets(whole))
        )


def _pcapng_bytes(records, tmp_path):
    """Build a tiny pcapng by hand: SHB + IDB + EPBs (ns resolution)."""
    from repro.net.packet import to_wire_bytes

    def block(block_type, body):
        total = 12 + len(body) + (-len(body)) % 4
        return (
            struct.pack("<II", block_type, total)
            + body
            + b"\x00" * ((-len(body)) % 4)
            + struct.pack("<I", total)
        )

    shb = block(BLOCK_SHB,
                struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1))
    # if_tsresol=9 (nanoseconds), then end-of-options.
    options = struct.pack("<HHB3x", 9, 1, 9) + struct.pack("<HH", 0, 0)
    idb = block(0x00000001, struct.pack("<HHI", 1, 0, 0) + options)
    out = shb + idb
    for record in records:
        frame = to_wire_bytes(record)
        ts = record.timestamp_ns
        body = struct.pack("<IIIII", 0, ts >> 32, ts & 0xFFFFFFFF,
                           len(frame), len(frame))
        body += frame + b"\x00" * ((-len(frame)) % 4)
        out += block(0x00000006, body)
    return out


class TestPcapngTruncation:
    @pytest.fixture()
    def ng_bytes(self, records, tmp_path):
        return _pcapng_bytes(records[:12], tmp_path)

    def test_empty_stream_is_truncated_at_zero(self):
        with pytest.raises(TruncatedCapture) as info:
            PcapngReader(io.BytesIO(b""))
        assert info.value.resume_offset == 0

    def test_mid_block_cut_reports_block_start(self, ng_bytes):
        reader = PcapngReader(io.BytesIO(ng_bytes))
        next(reader)
        cut_at = reader.resume_offset + 11  # inside the next EPB
        reader = PcapngReader(io.BytesIO(ng_bytes[:cut_at]))
        first = next(reader)
        block_start = reader.resume_offset
        with pytest.raises(TruncatedCapture) as info:
            next(reader)
        assert info.value.resume_offset == block_start
        assert first is not None

    def test_same_reader_retries_after_growth(self, ng_bytes):
        cut_at = len(ng_bytes) - 9
        stream = io.BytesIO(ng_bytes[:cut_at])
        reader = PcapngReader(stream)
        consumed = []
        with pytest.raises(TruncatedCapture):
            for item in reader:
                consumed.append(item)
        pos = stream.tell()
        stream.seek(0, io.SEEK_END)
        stream.write(ng_bytes[cut_at:])
        stream.seek(pos)
        remaining = list(reader)
        full = list(PcapngReader(io.BytesIO(ng_bytes)))
        assert consumed + remaining == full

    def test_skip_to_replays_section_state(self, ng_bytes):
        reader = PcapngReader(io.BytesIO(ng_bytes))
        skipped = [next(reader) for _ in range(4)]
        offset = reader.resume_offset
        resumed = PcapngReader(io.BytesIO(ng_bytes))
        resumed.skip_to(offset)
        rest = list(resumed)
        full = list(PcapngReader(io.BytesIO(ng_bytes)))
        assert skipped + rest == full

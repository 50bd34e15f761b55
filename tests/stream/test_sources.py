"""PacketSource behaviour: one-shot, tailing, and paced replay."""

import struct

import pytest

from repro.net.packet import from_wire_bytes
from repro.net.pcap import (
    PcapFormatError,
    append_packets,
    read_packets,
    write_packets,
)
from repro.stream import (
    CaptureFileSource,
    PacedReplaySource,
    TailCaptureSource,
)


def decode(chunk):
    """The TCP records of one frame chunk (sources yield raw frames)."""
    records = (from_wire_bytes(frame, ts, linktype_ethernet=ethernet)
               for ts, ethernet, frame in chunk)
    return [record for record in records if record is not None]


def drain(source, chunk_size=256):
    out = []
    for chunk in source.chunks(chunk_size):
        out.extend(decode(chunk))
    return out


class TestCaptureFileSource:
    def test_yields_every_tcp_record(self, campus_pcap):
        source = CaptureFileSource(campus_pcap)
        try:
            records = drain(source)
        finally:
            source.close()
        assert records == list(read_packets(campus_pcap))

    def test_chunks_respect_cap(self, campus_pcap):
        source = CaptureFileSource(campus_pcap)
        try:
            sizes = [len(c) for c in source.chunks(100)]
        finally:
            source.close()
        assert sizes, "expected at least one chunk"
        assert all(size <= 100 for size in sizes)
        assert all(size == 100 for size in sizes[:-1])

    def test_resume_offset_round_trips(self, campus_pcap):
        full = list(read_packets(campus_pcap))
        source = CaptureFileSource(campus_pcap)
        chunks = source.chunks(64)
        first = decode(next(chunks))
        state = source.resume_state()
        source.close()
        assert state["path"] == str(campus_pcap)
        assert state["format"] == "pcap"
        resumed = CaptureFileSource(state["path"],
                                    capture_format=state["format"],
                                    resume_offset=state["offset"])
        try:
            rest = drain(resumed)
        finally:
            resumed.close()
        assert first + rest == full

    def test_lag_bytes_shrinks_to_zero(self, campus_pcap):
        source = CaptureFileSource(campus_pcap)
        try:
            assert source.lag_bytes() > 0
            drain(source)
            assert source.lag_bytes() == 0
        finally:
            source.close()


class NoSleep:
    """Injectable sleep that counts calls and caps them (no hangs)."""

    def __init__(self, limit=10_000):
        self.calls = 0
        self.limit = limit

    def __call__(self, seconds):
        self.calls += 1
        if self.calls > self.limit:
            raise AssertionError("tail never finished")


class TestTailCaptureSource:
    def test_reads_growing_capture_to_completion(self, campus_records,
                                                 tmp_path):
        path = tmp_path / "live.pcap"
        half = len(campus_records) // 2
        write_packets(path, campus_records[:half])
        sleeper = NoSleep()
        source = TailCaptureSource(path, poll_interval_s=0.01,
                                   idle_timeout_s=0.05, sleep=sleeper)
        got = []
        grown = False
        try:
            for chunk in source.chunks(512):
                got.extend(decode(chunk))
                if not grown and len(got) >= half - 600:
                    append_packets(path, campus_records[half:])
                    grown = True
        finally:
            source.close()
        assert got == list(read_packets(path))
        assert sleeper.calls > 0  # it actually idled at the boundary

    def test_tolerates_midrecord_writes(self, campus_records, tmp_path):
        # Grow the file in *byte* lumps that split records, the way a
        # kernel buffer flush might; the tail must never mis-parse.
        ref = tmp_path / "ref.pcap"
        write_packets(ref, campus_records[:400])
        blob = ref.read_bytes()
        path = tmp_path / "live.pcap"
        path.write_bytes(b"")
        written = 0

        def grow(seconds):
            nonlocal written
            if written >= len(blob):
                raise AssertionError("tail kept waiting after EOF")
            step = 37  # deliberately not a record boundary
            chunk = blob[written : written + step]
            with open(path, "ab") as stream:
                stream.write(chunk)
            written += len(chunk)

        source = TailCaptureSource(path, poll_interval_s=0.01,
                                   idle_timeout_s=None, sleep=grow)
        got = []
        expected = len(list(read_packets(ref)))
        try:
            for chunk in source.chunks(64):
                got.extend(decode(chunk))
                if len(got) == expected and written >= len(blob):
                    break
        finally:
            source.close()
        assert got == list(read_packets(ref))

    def test_rotation_restarts_at_new_file(self, campus_records, tmp_path):
        path = tmp_path / "live.pcap"
        write_packets(path, campus_records[:300])
        state = {"rotated": False}

        def rotate(seconds):
            if state["rotated"]:
                return
            state["rotated"] = True
            path.unlink()
            write_packets(path, campus_records[300:600])

        source = TailCaptureSource(path, poll_interval_s=0.01,
                                   idle_timeout_s=0.02, sleep=rotate)
        got = drain(source, 128)
        source.close()
        # Everything from the first file, then everything from the new one.
        assert got == campus_records[:600]

    def test_idle_timeout_ends_stream(self, campus_pcap):
        sleeper = NoSleep()
        source = TailCaptureSource(campus_pcap, poll_interval_s=0.5,
                                   idle_timeout_s=1.0, sleep=sleeper)
        got = drain(source)
        source.close()
        assert got == list(read_packets(campus_pcap))
        # 1.0s timeout at 0.5s polls: exactly two idle sleeps.
        assert sleeper.calls == 2

    def test_starts_before_file_exists(self, campus_records, tmp_path):
        path = tmp_path / "late.pcap"
        state = {"polls": 0}

        def appear(seconds):
            state["polls"] += 1
            if state["polls"] == 2:
                write_packets(path, campus_records[:100])

        source = TailCaptureSource(path, poll_interval_s=0.01,
                                   idle_timeout_s=0.03, sleep=appear)
        got = drain(source)
        source.close()
        assert got == campus_records[:100]

    def test_garbage_record_length_fails_within_one_poll(
        self, campus_records, tmp_path
    ):
        # A good record, then a record header claiming 1 GiB: the tail
        # must not read that as "file still growing" and wait forever.
        path = tmp_path / "live.pcap"
        write_packets(path, campus_records[:1])
        with open(path, "ab") as stream:
            stream.write(struct.pack("<IIII", 0, 0, 1 << 30, 1 << 30))
            stream.write(b"\x00" * 100)
        sleeper = NoSleep(limit=0)
        source = TailCaptureSource(path, poll_interval_s=0.01,
                                   idle_timeout_s=None, sleep=sleeper)
        try:
            with pytest.raises(PcapFormatError, match="snaplen"):
                drain(source)
        finally:
            source.close()
        assert sleeper.calls == 0


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestPacedReplaySource:
    def test_sleeps_follow_trace_timestamps(self, campus_pcap):
        clock = FakeClock()
        source = PacedReplaySource(campus_pcap, speed=1.0, clock=clock,
                                   sleep=clock.sleep)
        got = drain(source, 64)
        source.close()
        full = list(read_packets(campus_pcap))
        assert got == full
        span_s = (full[-1].timestamp_ns - full[0].timestamp_ns) / 1e9
        assert sum(clock.sleeps) == pytest.approx(span_s, rel=1e-6)

    def test_speed_scales_wall_time(self, campus_pcap):
        clock = FakeClock()
        source = PacedReplaySource(campus_pcap, speed=25.0, clock=clock,
                                   sleep=clock.sleep)
        full = drain(source, 64)
        source.close()
        span_s = (full[-1].timestamp_ns - full[0].timestamp_ns) / 1e9
        assert sum(clock.sleeps) == pytest.approx(span_s / 25.0, rel=1e-6)

    def test_pending_record_excluded_from_resume_state(self, campus_pcap):
        # With a frozen clock, only the first record is ever due: the
        # pacer holds the second one pending.  resume_state must point
        # *before* the pending record so a checkpointed run replays it.
        clock = FakeClock()
        source = PacedReplaySource(campus_pcap, speed=1.0, clock=clock,
                                   sleep=lambda s: None)  # never advances
        chunks = source.chunks(8)
        first = decode(next(chunks))
        state = source.resume_state()
        source.close()
        resumed = CaptureFileSource(state["path"],
                                    resume_offset=state["offset"])
        rest = drain(resumed)
        resumed.close()
        assert first + rest == list(read_packets(campus_pcap))

    def test_rejects_nonpositive_speed(self, campus_pcap):
        with pytest.raises(ValueError):
            PacedReplaySource(campus_pcap, speed=0)

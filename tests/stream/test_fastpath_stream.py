"""Streaming decode paths: one frame chunker, interchangeable decoders.

Every :class:`~repro.stream.PacketSource` yields raw frame chunks and
the engine picks the decoder, so everything the daemon's durability
story rests on — chunk boundaries, resume offsets, checkpoint state,
and the emitted CSVs — must be indistinguishable whether the frames
decode columnar, per-frame (``fastpath=False``), or without numpy.
That is what makes a checkpoint written under one decoder resumable
under another.
"""

import io

import pytest

from repro.core import Dart
from repro.engine import MonitorEngine, MonitorOptions, create
from repro.net import columnar
from repro.net.columnar import HAVE_NUMPY
from repro.net.packet import to_wire_bytes
from repro.net.pcap import PcapWriter, write_packets
from repro.net.pcapng import FrameReader
from repro.quic import QuicScenarioConfig, generate_quic_trace
from repro.quic.wire import quic_to_wire_bytes
from repro.stream import (
    CaptureFileSource,
    GracefulShutdown,
    PacedReplaySource,
    ResumableSink,
    StreamRunner,
    TailCaptureSource,
    read_checkpoint,
    read_header,
)
from tests.net.test_pcapng import PcapngBuilder
from tests.stream.test_sources import FakeClock

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the columnar fast path requires numpy"
)

CHUNK = 97  # deliberately not a divisor of any trace length
LUMP = 1013  # tail growth step in bytes: never a record boundary


@pytest.fixture(scope="module")
def mixed(campus_records):
    """TCP records and the time-ordered ``(timestamp_ns, frame)`` list
    of a capture that interleaves them with QUIC datagrams — the
    frames that fill a chunk slot without decoding to a record."""
    tcp = campus_records[:1500]
    quic = generate_quic_trace(QuicScenarioConfig(duration_ns=10**9))
    frames = [(r.timestamp_ns, to_wire_bytes(r)) for r in tcp]
    frames += [(r.timestamp_ns + tcp[0].timestamp_ns, quic_to_wire_bytes(r))
               for r in quic.records]
    frames.sort(key=lambda item: item[0])
    return tcp, frames


def capture_bytes(frames, capture_format):
    """The frames as one capture; the pcapng flavour repeats every
    50th frame on an interface whose link layer no decoder speaks,
    which the frame reader must skip."""
    if capture_format == "pcap":
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        for timestamp_ns, frame in frames:
            writer.write(timestamp_ns, frame)
        return stream.getvalue()
    builder = PcapngBuilder().shb().idb(tsresol=9).idb(linktype=127,
                                                       tsresol=9)
    for i, (timestamp_ns, frame) in enumerate(frames):
        builder.epb(timestamp_ns, frame)
        if i % 50 == 0:
            builder.epb(timestamp_ns, frame, interface=1)
    return b"".join(builder.blocks)


def last_record_start(blob):
    """Byte offset at which the capture's final record begins."""
    reader = FrameReader(io.BytesIO(blob))
    frames = iter(reader)
    start = None
    while True:
        offset = reader.resume_offset
        if next(frames, None) is None:
            return start
        start = offset


def make_source(kind, capture_format, frames, workdir):
    """A source of ``kind`` that delivers exactly ``frames``."""
    path = workdir / f"capture.{capture_format}"
    if kind != "tail":
        path.write_bytes(capture_bytes(frames, capture_format))
        if kind == "file":
            return CaptureFileSource(path)
        clock = FakeClock()
        return PacedReplaySource(path, clock=clock, sleep=clock.sleep)
    # A growing file that is cut mid-record at every poll and ends
    # inside one last record that never completes.
    blob = capture_bytes(frames + [frames[-1]], capture_format)
    blob = blob[:last_record_start(blob) + 11]
    path.write_bytes(blob[:len(blob) // 3])

    def grow(seconds):
        have = path.stat().st_size
        with open(path, "ab") as stream:
            stream.write(blob[have:have + LUMP])

    # Five idle polls end the tail; a frame spans at most two lumps.
    return TailCaptureSource(path, poll_interval_s=0.01,
                             idle_timeout_s=0.05, sleep=grow)


def drive(source, consume):
    """Feed every chunk to ``consume``; the source's position after
    each one (minus the per-run path)."""
    states = []
    try:
        for chunk in source.chunks(CHUNK):
            consume(chunk)
            state = source.resume_state()
            del state["path"]
            states.append(state)
    finally:
        source.close()
    return states


@pytest.mark.parametrize("decoder", [
    pytest.param("columnar", marks=needs_numpy), "object", "no-numpy",
])
@pytest.mark.parametrize("capture_format", ["pcap", "pcapng"])
@pytest.mark.parametrize("kind", ["file", "tail", "paced"])
def test_every_source_feeds_every_decoder_identically(
    mixed, tmp_path, monkeypatch, kind, capture_format, decoder
):
    tcp, frames = mixed
    reference = Dart()
    for record in tcp:
        reference.process(record)

    if decoder == "no-numpy":
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
    dart = Dart()
    entered = {"process_columns": 0, "process_batch": 0}
    for name in entered:
        def spy(arg, name=name, inner=getattr(dart, name)):
            entered[name] += 1
            return inner(arg)
        setattr(dart, name, spy)
    engine = MonitorEngine()
    engine.add_monitor(dart, name="dart")

    (tmp_path / "run").mkdir()
    states = drive(
        make_source(kind, capture_format, frames, tmp_path / "run"),
        lambda chunk: engine.ingest_wire_chunk(
            chunk, fastpath=decoder != "object"),
    )

    assert engine.records == len(tcp)
    assert dart.stats == reference.stats
    assert list(dart.samples) == list(reference.samples)
    # Positions are the source's alone: a pass that decodes nothing
    # stops on the same bytes after every chunk.
    (tmp_path / "dry").mkdir()
    delivered = []
    assert states == drive(
        make_source(kind, capture_format, frames, tmp_path / "dry"),
        delivered.extend,
    )
    assert [(ts, frame) for ts, _, frame in delivered] == frames
    assert states[-1]["format"] == capture_format
    # The decoder is chosen by what the engine observes, for a tailed
    # or paced capture exactly as for a one-shot file.
    used, unused = (("process_columns", "process_batch")
                    if decoder == "columnar"
                    else ("process_batch", "process_columns"))
    assert entered[used] > 0 and entered[unused] == 0


@pytest.mark.parametrize("capture_format", ["pcap", "pcapng"])
def test_any_recorded_offset_resumes_with_the_remaining_frames(
    mixed, tmp_path, capture_format
):
    _, frames = mixed
    path = tmp_path / f"capture.{capture_format}"
    path.write_bytes(capture_bytes(frames, capture_format))
    source = CaptureFileSource(path)
    seen = 0
    for chunk in source.chunks(CHUNK):
        seen += len(chunk)
        state = source.resume_state()
        if seen >= 3 * CHUNK:
            break
    source.close()
    resumed = CaptureFileSource(state["path"],
                                capture_format=state["format"],
                                resume_offset=state["offset"])
    rest = [frame for chunk in resumed.chunks(CHUNK) for frame in chunk]
    resumed.close()
    assert [(ts, frame) for ts, _, frame in rest] == frames[seen:]


def _stream_once(capture, tmp_path, tag, *, fastpath, shutdown_after=None):
    monitor = create("dart", MonitorOptions())
    engine = MonitorEngine()
    csv = ResumableSink("csv", tmp_path / f"{tag}.csv")
    engine.add_monitor(monitor, name="dart", sinks=[csv])
    source = CaptureFileSource(capture, fastpath=fastpath)
    stop = GracefulShutdown()
    if shutdown_after is not None:
        inner = source.chunks

        def stopping(max_records):
            for i, chunk in enumerate(inner(max_records)):
                yield chunk
                if i == shutdown_after:
                    stop.request()

        source.chunks = stopping
    runner = StreamRunner(
        engine, source, shutdown=stop, sinks=[csv], chunk_size=256,
        checkpoint_path=str(tmp_path / f"{tag}.ckpt"),
    )
    return runner.run()


def _resume(capture, tmp_path, tag, *, fastpath):
    loaded = read_checkpoint(tmp_path / f"{tag}.ckpt")
    engine = MonitorEngine()
    csv = ResumableSink.resume(loaded.header["sinks"][0])
    engine.add_monitor(loaded.payload["monitors"]["dart"], name="dart",
                       sinks=[csv])
    source = CaptureFileSource(
        capture,
        capture_format=loaded.header["source"]["format"],
        resume_offset=loaded.header["source"]["offset"],
        fastpath=fastpath,
    )
    runner = StreamRunner(engine, source, sinks=[csv], chunk_size=256,
                          checkpoint_path=str(tmp_path / f"{tag}.ckpt"))
    runner.restore(loaded.header)
    return runner.run()


@needs_numpy
def test_uninterrupted_stream_csv_and_checkpoint_identical(
    campus_records, tmp_path
):
    capture = tmp_path / "campus.pcap"
    write_packets(capture, campus_records)
    ref = _stream_once(capture, tmp_path, "obj", fastpath=False)
    got = _stream_once(capture, tmp_path, "fast", fastpath=True)
    assert got.records == ref.records == len(campus_records)
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "obj.csv").read_bytes())
    # Checkpoints match apart from their creation wall-clock stamp and
    # the (deliberately different) sink file names.
    ref_header = read_header(tmp_path / "obj.ckpt")
    got_header = read_header(tmp_path / "fast.ckpt")
    for header in (ref_header, got_header):
        header.pop("created_unix_ns")
        for sink in header["sinks"]:
            sink["path"] = "csv"
    assert got_header == ref_header
    # Identical payload bytes, not merely equivalent state: the header
    # hashes the pickled monitors, so this pins that no decode-path
    # artifact (cache fills and the like) leaks into the checkpoint.
    assert (got_header["payload_sha256"] == ref_header["payload_sha256"])


@needs_numpy
@pytest.mark.parametrize("first,second", [(True, True), (True, False),
                                          (False, True)])
def test_kill_resume_across_paths_is_byte_identical(
    campus_records, tmp_path, first, second
):
    """A checkpoint written under one decode path resumes under the
    other — offsets are path-independent, so the stitched CSV matches
    an uninterrupted object-path run byte for byte."""
    capture = tmp_path / "campus.pcap"
    write_packets(capture, campus_records)
    _stream_once(capture, tmp_path, "ref", fastpath=False)

    segment = _stream_once(capture, tmp_path, "out", fastpath=first,
                           shutdown_after=1)
    assert segment.stopped
    final = _resume(capture, tmp_path, "out", fastpath=second)
    assert final.finalized
    assert final.records == len(campus_records)
    assert ((tmp_path / "out.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())

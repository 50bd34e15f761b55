"""StreamRunner behaviour: rotation, bounded memory, stop/finalize paths."""

import io

import pytest

from repro.core.analytics import MinFilterAnalytics
from repro.engine import MonitorEngine, MonitorOptions, create
from repro.net.pcap import append_packets, write_packets
from repro.obs import TelemetryEmitter
from repro.stream import (
    AnalyticsTap,
    CaptureFileSource,
    GracefulShutdown,
    ResumableSink,
    StreamRunner,
    TailCaptureSource,
    read_checkpoint,
    read_header,
)
from repro.traces import CampusTraceConfig, generate_campus_trace


def build_dart(analytics=None):
    return create("dart", MonitorOptions(analytics=analytics))


def make_runner(tmp_path, source, *, analytics=None, monitor=None,
                checkpoint=None, shutdown=None, **kwargs):
    embed = monitor is None
    monitor = monitor if monitor is not None else build_dart(analytics)
    engine = MonitorEngine()
    csv = ResumableSink("csv", tmp_path / "out.csv")
    engine_sinks = [csv]
    if analytics is not None and not embed:
        # Monitor supplied separately: feed the analytics the routed
        # sample stream instead (mirrors the CLI's non-dart wiring).
        engine_sinks.append(AnalyticsTap(analytics))
    engine.add_monitor(monitor, name="dart", sinks=engine_sinks)
    sinks = [csv]
    window_sink = None
    if analytics is not None:
        window_sink = ResumableSink("windows", tmp_path / "win.jsonl")
        sinks.append(window_sink)
    runner = StreamRunner(
        engine, source,
        shutdown=shutdown,
        sinks=sinks,
        analytics=analytics,
        window_sink=window_sink,
        checkpoint_path=str(checkpoint) if checkpoint else None,
        **kwargs,
    )
    return runner, monitor, engine, csv


class TestRotation:
    def test_output_complete_despite_rotation(self, campus_pcap, tmp_path):
        analytics = MinFilterAnalytics(window_samples=8, retain_windows=4)
        runner, monitor, engine, csv = make_runner(
            tmp_path, CaptureFileSource(campus_pcap),
            analytics=analytics, rotation_records=500, chunk_size=256,
        )
        report = runner.run()
        assert report.rotations > 5
        # A min-filter dart retains windows, not samples, so rotation
        # ships windows and has no sample list to drain...
        assert report.samples_drained == 0
        assert report.windows_shipped == analytics.windows_closed
        # ...and nothing was lost: every emitted sample reached the sink,
        # and the cumulative stats counter kept counting.
        assert csv.count == monitor.stats.samples

    def test_stats_match_unrotated_run(self, campus_pcap, tmp_path):
        runner, monitor, _, csv = make_runner(
            tmp_path, CaptureFileSource(campus_pcap),
            rotation_records=400, chunk_size=128,
        )
        report = runner.run()
        # The default collect-all analytics *does* retain samples, so
        # here rotation has something to drain.
        assert report.samples_drained > 0
        reference = build_dart()
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        ref_runner, _, _, ref_csv = make_runner(
            ref_dir, CaptureFileSource(campus_pcap),
            monitor=reference, rotation_records=10**9, chunk_size=128,
        )
        ref_runner.run()
        assert monitor.stats == reference.stats
        assert csv.count == ref_csv.count
        assert (tmp_path / "out.csv").read_bytes() == \
            (ref_dir / "out.csv").read_bytes()


class TestEndings:
    def test_exhausted_run_finalizes(self, campus_pcap, tmp_path):
        ckpt = tmp_path / "ck"
        runner, monitor, engine, _ = make_runner(
            tmp_path, CaptureFileSource(campus_pcap),
            checkpoint=ckpt, chunk_size=512,
        )
        report = runner.run()
        assert report.finalized and not report.stopped
        assert read_checkpoint(ckpt).finalized

    def test_stop_checkpoints_without_finalizing(self, campus_pcap,
                                                 tmp_path):
        ckpt = tmp_path / "ck"
        stop = GracefulShutdown()
        source = CaptureFileSource(campus_pcap)
        original_chunks = source.chunks

        def stopping_chunks(max_records):
            for i, chunk in enumerate(original_chunks(max_records)):
                yield chunk
                if i == 3:
                    stop.request()

        source.chunks = stopping_chunks
        runner, monitor, engine, csv = make_runner(
            tmp_path, source, checkpoint=ckpt, shutdown=stop,
            chunk_size=256,
        )
        report = runner.run()
        assert report.stopped and not report.finalized
        loaded = read_checkpoint(ckpt)
        assert not loaded.finalized
        # The monitor was snapshotted live: open tracker state intact.
        restored = loaded.payload["monitors"]["dart"]
        assert restored.stats.packets_processed == \
            monitor.stats.packets_processed
        # Sink offsets in the header match the file on disk.
        sink_state = loaded.header["sinks"][0]
        assert sink_state["offset"] == (tmp_path / "out.csv").stat().st_size
        assert csv.inner.closed

    def test_max_records_bounds_the_run(self, campus_pcap, tmp_path):
        runner, _, engine, _ = make_runner(
            tmp_path, CaptureFileSource(campus_pcap),
            chunk_size=256, max_records=1000,
        )
        report = runner.run()
        assert report.finalized
        assert 1000 <= report.records <= 1000 + 256


class TestTelemetry:
    def test_stream_metrics_exported(self, campus_pcap, tmp_path):
        stream = io.StringIO()
        emitter = TelemetryEmitter("prom", interval_s=1000, stream=stream)
        source = CaptureFileSource(campus_pcap)
        monitor = build_dart()
        engine = MonitorEngine(telemetry=emitter)
        csv = ResumableSink("csv", tmp_path / "out.csv")
        engine.add_monitor(monitor, name="dart", sinks=[csv])
        runner = StreamRunner(engine, source, sinks=[csv],
                              telemetry=emitter, rotation_records=500,
                              chunk_size=256)
        runner.run()
        text = stream.getvalue()
        assert "dart_stream_records_total" in text
        assert "dart_stream_rotations_total" in text
        assert "dart_stream_source_lag_bytes" in text
        assert "dart_engine_records_total" in text

    def test_checkpoint_bytes_gauge_reports_the_last_payload(
        self, campus_pcap, tmp_path
    ):
        ckpt = tmp_path / "ck"
        emitter = TelemetryEmitter("prom", interval_s=1000,
                                   stream=io.StringIO())
        runner, _, _, _ = make_runner(
            tmp_path, CaptureFileSource(campus_pcap), checkpoint=ckpt,
            telemetry=emitter, chunk_size=256, checkpoint_interval_s=1e-9,
        )
        report = runner.run()
        assert report.checkpoints > 1
        emitter.emit()
        gauge = emitter.registry.get("dart_stream_checkpoint_bytes")
        assert gauge.value() == read_header(ckpt)["payload_len"] > 0


@pytest.fixture(scope="module")
def big_trace():
    """The acceptance-criteria trace: comfortably over 100k packets."""
    trace = generate_campus_trace(
        CampusTraceConfig(connections=2400, seed=13)
    )
    assert len(trace.records) >= 100_000
    return trace.records


class TestBoundedMemory:
    def test_100k_packets_through_tail_with_bounded_retention(
        self, big_trace, tmp_path
    ):
        path = tmp_path / "live.pcap"
        half = len(big_trace) // 2
        write_packets(path, big_trace[:half])
        fed = [half]

        def grow(seconds):
            # Feed the rest in lumps while the tail is idle.
            if fed[0] < len(big_trace):
                step = 40_000
                append_packets(path, big_trace[fed[0] : fed[0] + step])
                fed[0] += step

        source = TailCaptureSource(path, poll_interval_s=0.01,
                                   idle_timeout_s=0.03, sleep=grow)
        # Collect-all analytics retains every sample it sees -- the worst
        # case for memory -- so this run proves rotation keeps it bounded.
        # The min-filter analytics rides the routed sample stream and its
        # window history is bounded by the shipping drain.
        analytics = MinFilterAnalytics(window_samples=8, retain_windows=64)
        monitor = build_dart()
        rotation = 8192
        chunk = 2048
        peak = {"samples": 0, "windows": 0}
        original_chunks = source.chunks

        def probed_chunks(max_records):
            for piece in original_chunks(max_records):
                yield piece
                # The runner processed+rotated the piece before pulling
                # the next one, so this observes post-ingest state.
                peak["samples"] = max(peak["samples"], len(monitor.samples))
                peak["windows"] = max(peak["windows"],
                                      len(analytics.history))

        source.chunks = probed_chunks
        runner, _, engine, csv = make_runner(
            tmp_path, source, analytics=analytics, monitor=monitor,
            rotation_records=rotation, chunk_size=chunk,
        )
        report = runner.run()
        assert report.records == len(big_trace)
        total_samples = monitor.stats.samples
        assert total_samples > 10_000
        # Retention is bounded by the rotation interval, not the run:
        # at most one rotation interval of samples (plus chunk slack)
        # is ever held in memory, a small fraction of the emitted total.
        bound = rotation + chunk
        assert 0 < peak["samples"] <= bound
        assert peak["samples"] < total_samples / 4
        assert 0 < peak["windows"] <= bound
        assert peak["windows"] < analytics.windows_closed / 4
        # Zero loss end to end.
        assert csv.count == total_samples

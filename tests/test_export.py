"""Tests for the report export layer and per-flow summaries."""

import hashlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.analytics import DstPrefixKey, MinFilterAnalytics, WindowMinimum
from repro.core.flow import FlowKey, intern_flow
from repro.core.samples import RttSample
from repro.export import (
    RECORD_LEN,
    CsvSink,
    FlowSummarySink,
    JsonlSink,
    ReportFileSink,
    ReportFormatError,
    WindowJsonlSink,
    decode_sample,
    encode_sample,
    read_reports,
    write_reports,
)
from tests.core.test_fastpath import EMITTERS

MS = 1_000_000


def sample(rtt_ms=20.0, t_ms=100.0, *, handshake=False, leg=None,
           ipv6=False, sport=40000, eack=12345):
    flow = FlowKey(
        src_ip=(1 << 100) + 5 if ipv6 else 0x0A000001,
        dst_ip=(1 << 99) + 9 if ipv6 else 0x10000001,
        src_port=sport, dst_port=443, ipv6=ipv6,
    )
    return RttSample(flow=flow, rtt_ns=int(rtt_ms * MS),
                     timestamp_ns=int(t_ms * MS), eack=eack,
                     handshake=handshake, leg=leg)


class TestRecordCodec:
    def test_roundtrip_basic(self):
        s = sample()
        assert decode_sample(encode_sample(s)) == s

    def test_roundtrip_flags(self):
        for kwargs in (
            dict(handshake=True),
            dict(leg="external"),
            dict(leg="internal"),
            dict(ipv6=True),
            dict(handshake=True, leg="internal", ipv6=True),
        ):
            s = sample(**kwargs)
            assert decode_sample(encode_sample(s)) == s

    def test_record_length(self):
        assert len(encode_sample(sample())) == RECORD_LEN

    def test_wrong_length_rejected(self):
        with pytest.raises(ReportFormatError):
            decode_sample(b"\x00" * 10)

    def test_wrong_version_rejected(self):
        raw = bytearray(encode_sample(sample()))
        raw[0] = 9
        with pytest.raises(ReportFormatError):
            decode_sample(bytes(raw))

    def test_unknown_leg_rejected_at_encode(self):
        with pytest.raises(ReportFormatError):
            encode_sample(sample(leg="sideways"))

    def test_stream_roundtrip(self):
        samples = [sample(rtt_ms=i + 1, t_ms=i * 10, eack=i) for i in range(50)]
        stream = io.BytesIO()
        assert write_reports(stream, samples) == 50
        stream.seek(0)
        assert list(read_reports(stream)) == samples

    def test_truncated_stream_raises(self):
        stream = io.BytesIO(encode_sample(sample())[:-3])
        with pytest.raises(ReportFormatError):
            list(read_reports(stream))

    @given(
        st.integers(min_value=0, max_value=(1 << 63) - 1),
        st.integers(min_value=0, max_value=(1 << 63) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_roundtrip_property(self, rtt, ts, eack, port):
        flow = FlowKey(src_ip=1, dst_ip=2, src_port=port, dst_port=443)
        s = RttSample(flow=flow, rtt_ns=rtt, timestamp_ns=ts, eack=eack)
        assert decode_sample(encode_sample(s)) == s


def edge_samples():
    """Samples at the edges of every field a text sink formats."""
    v6 = (intern_flow((0x20010DB8 << 96) + 1, 1, 443, 50000, True),
          intern_flow((1 << 128) - 1, 0xFFFF << 32 | 0x0A000001, 0, 65535,
                      True))
    v4 = (intern_flow(0, (1 << 32) - 1, 0, 65535),
          intern_flow(0x0A000001, 0xC0A80001, 40000, 443))
    rows = []
    for flow in v6 + v4:
        for leg in (None, "external", "internal"):
            for handshake in (False, True):
                rows.append(RttSample(flow, 7 * MS, 100 * MS, 12345,
                                      handshake, leg))
    rows.append(RttSample(v4[0], 0, 0, 0))
    rows.append(RttSample(v6[1], (1 << 63) - 1, (1 << 63) - 1,
                          (1 << 32) - 1, True, "internal"))
    return rows


def edge_windows():
    """Closed windows keyed every way an analytics stage keys them."""
    keys = (intern_flow(0x0A000001, 0xC0A80001, 40000, 443),
            intern_flow((0x20010DB8 << 96) + 1, 1, 443, 50000, True),
            0xC0A80100, (0x20010DB8 << 96) + (5 << 32),
            (0x0A000001, 443), 'a "quoted" \\ key')
    return [WindowMinimum(key, index, 5 * MS + index, 8, 100 * MS * index)
            for index, key in enumerate(keys)]


def analytics_windows():
    """Windows a min-filter closes over real Dart samples, per /24."""
    analytics = MinFilterAnalytics(window_samples=8, key_fn=DstPrefixKey(24))
    for item in EMITTERS["dart"][0]():
        analytics.add(item)
    return analytics.drain_windows()


SAMPLE_SETS = {**{name: produce for name, (produce, _, _) in EMITTERS.items()},
               "edges": edge_samples}
WINDOW_SETS = {"edges": edge_windows, "analytics": analytics_windows}


def sink_digest(cls, items, path, split=None) -> str:
    """SHA-256 of what ``cls`` writes for ``items``; with ``split``, the
    first ``split`` items go through one sink and the rest through a
    second one reopened with ``append=True`` (the resume path)."""
    split = len(items) if split is None else split
    with cls(path) as sink:
        for item in items[:split]:
            sink.add(item)
    if split < len(items):
        with cls(path, append=True) as sink:
            for item in items[split:]:
                sink.add(item)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


#: Digests of each text sink's output, captured while the sinks built a
#: dict per row for ``json.dumps`` and a list for ``csv.writer``.
GOLDEN_SAMPLES = {
    "dart": ("41fe4b58eb0d0e4d", "b04a8477c805a6c3"),
    "tcptrace": ("234f20a1b4dcd679", "7d01b82a63ec186c"),
    "strawman": ("88c3f83e82c97d20", "daa344487b930e8f"),
    "dapper": ("a386937289f62dc6", "09a15f7b16368be6"),
    "spin-bit": ("0432f1a46b6af92b", "dd3b26b709c693aa"),
    "decode_sample": ("41fe4b58eb0d0e4d", "b04a8477c805a6c3"),
    "edges": ("118e20a7769287eb", "936e6ed309d8e4c4"),
}
GOLDEN_WINDOWS = {"edges": "56ba6e76bd32f797", "analytics": "2356fa53274697f5"}


class TestFileSinks:
    def test_report_file_roundtrip(self, tmp_path):
        path = tmp_path / "samples.rtt"
        samples = [sample(rtt_ms=i + 1) for i in range(10)]
        with ReportFileSink(path) as sink:
            for s in samples:
                sink.add(s)
            assert sink.count == 10
        with open(path, "rb") as stream:
            assert list(read_reports(stream)) == samples

    def test_csv_sink(self, tmp_path):
        path = tmp_path / "samples.csv"
        with CsvSink(path) as sink:
            sink.add(sample(leg="external"))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("timestamp_ns,rtt_ns,src")
        assert "10.0.0.1" in lines[1]
        assert "external" in lines[1]

    def test_jsonl_sink(self, tmp_path):
        import json

        path = tmp_path / "samples.jsonl"
        with JsonlSink(path) as sink:
            sink.add(sample(handshake=True))
            sink.add(sample(ipv6=True))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["handshake"] is True
        assert ":" in rows[1]["src"]  # IPv6 formatting

    def test_sinks_create_missing_parent_directories(self, tmp_path):
        # Regression: pointing a sink into a not-yet-created run
        # directory used to raise FileNotFoundError at construction.
        for cls, name in ((CsvSink, "s.csv"), (JsonlSink, "s.jsonl"),
                          (ReportFileSink, "s.rtt")):
            path = tmp_path / "runs" / cls.__name__ / name
            with cls(path) as sink:
                sink.add(sample())
                assert sink.count == 1
            assert path.exists()

    def test_sinks_usable_as_dart_analytics(self, tmp_path):
        from repro.core import Dart, ideal_config
        from repro.net import tcp as tcpf
        from repro.net.packet import PacketRecord

        path = tmp_path / "live.rtt"
        sink = ReportFileSink(path)
        dart = Dart(ideal_config(), analytics=sink)
        dart.process(PacketRecord(
            timestamp_ns=0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
            seq=100, ack=1, flags=tcpf.FLAG_ACK, payload_len=50,
        ))
        dart.process(PacketRecord(
            timestamp_ns=7 * MS, src_ip=2, dst_ip=1, src_port=4,
            dst_port=3, seq=1, ack=150, flags=tcpf.FLAG_ACK,
            payload_len=0,
        ))
        sink.close()
        with open(path, "rb") as stream:
            (out,) = list(read_reports(stream))
        assert out.rtt_ns == 7 * MS

    @pytest.mark.parametrize("name", SAMPLE_SETS)
    def test_sample_sinks_write_golden_bytes(self, tmp_path, name):
        items = SAMPLE_SETS[name]()
        assert items
        digests = (sink_digest(JsonlSink, items, tmp_path / "s.jsonl"),
                   sink_digest(CsvSink, items, tmp_path / "s.csv"))
        assert digests == GOLDEN_SAMPLES[name]

    @pytest.mark.parametrize("name", ["dart", "edges"])
    def test_appended_sample_sinks_write_golden_bytes(self, tmp_path, name):
        items = SAMPLE_SETS[name]()
        digests = tuple(
            sink_digest(cls, items, tmp_path / f"s.{cls.__name__}",
                        split=len(items) // 2)
            for cls in (JsonlSink, CsvSink))
        assert digests == GOLDEN_SAMPLES[name]

    @pytest.mark.parametrize("name", WINDOW_SETS)
    def test_window_sink_writes_golden_bytes(self, tmp_path, name):
        items = WINDOW_SETS[name]()
        assert items
        digests = (
            sink_digest(WindowJsonlSink, items, tmp_path / "w.jsonl"),
            sink_digest(WindowJsonlSink, items, tmp_path / "w2.jsonl",
                        split=len(items) // 2))
        assert digests == (GOLDEN_WINDOWS[name],) * 2


class TestFlowSummaries:
    def test_streaming_stats(self):
        sink = FlowSummarySink()
        for rtt in (10, 20, 30, 40, 50):
            sink.add(sample(rtt_ms=rtt))
        (summary,) = sink.all()
        assert summary.count == 5
        assert summary.min_ns == 10 * MS
        assert summary.max_ns == 50 * MS
        assert summary.mean_ns == pytest.approx(30 * MS)
        assert summary.stdev_ns == pytest.approx(15.81 * MS, rel=0.01)
        assert summary.percentile_ns(50) == pytest.approx(30 * MS, rel=0.05)

    def test_flows_separate(self):
        sink = FlowSummarySink()
        sink.add(sample(sport=1000))
        sink.add(sample(sport=2000))
        sink.add(sample(sport=2000))
        assert len(sink) == 2
        busiest = sink.top_by_samples(1)[0]
        assert busiest.flow.src_port == 2000

    def test_describe_renders(self):
        sink = FlowSummarySink()
        sink.add(sample(rtt_ms=12.5))
        text = sink.all()[0].describe()
        assert "n=1" in text and "12.50ms" in text

    def test_time_span_tracked(self):
        sink = FlowSummarySink()
        sink.add(sample(t_ms=100))
        sink.add(sample(t_ms=500))
        summary = sink.all()[0]
        assert summary.first_ns == 100 * MS
        assert summary.last_ns == 500 * MS

    def test_get_missing_flow(self):
        sink = FlowSummarySink()
        other = FlowKey(src_ip=9, dst_ip=9, src_port=9, dst_port=9)
        assert sink.get(other) is None

    def test_on_campus_trace(self):
        from repro.core import Dart, ideal_config
        from repro.traces import CampusTraceConfig, generate_campus_trace

        trace = generate_campus_trace(CampusTraceConfig(connections=80,
                                                        seed=6))
        sink = FlowSummarySink()
        dart = Dart(ideal_config(), analytics=sink)
        for record in trace.records:
            dart.process(record)
        assert len(sink) > 0
        top = sink.top_by_samples(3)
        assert all(top[i].count >= top[i + 1].count
                   for i in range(len(top) - 1))
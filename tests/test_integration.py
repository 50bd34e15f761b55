"""Cross-module integration tests: trace -> monitors -> analysis."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import evaluate_dart, percentile
from repro.baselines import Strawman, TcpTrace, tcptrace_const
from repro.core import Dart, DartConfig, LegFilter, ideal_config
from repro.engine import MonitorEngine
from repro.net import tcp as tcpf
from repro.net.packet import PacketRecord
from repro.net.pcap import read_packets, write_packets
from repro.traces import CampusTraceConfig, generate_campus_trace
from tests.core.test_accounting import check_balance

MS = 1_000_000


def run_engine(records, *monitors):
    """One engine pass feeding ``records`` to every monitor."""
    engine = MonitorEngine()
    for index, monitor in enumerate(monitors):
        engine.add_monitor(monitor, name=str(index))
    return engine.run(records)


@pytest.fixture(scope="module")
def campus():
    return generate_campus_trace(CampusTraceConfig(connections=400, seed=33))


@pytest.fixture(scope="module")
def leg_external(campus):
    def make():
        return LegFilter(campus.internal, legs=("external",))
    return make


class TestDartVsTcptrace(object):
    """The Fig 9 relationship at test scale."""

    @pytest.fixture(scope="class")
    def results(self, campus, leg_external):
        tt = TcpTrace(track_handshake=False, leg_filter=leg_external())
        ideal = tcptrace_const(leg_filter=leg_external())
        run_engine(campus.records, tt, ideal)
        return tt, ideal

    def test_dart_collects_large_majority(self, results):
        tt, ideal = results
        ratio = len(ideal.samples) / len(tt.samples)
        assert 0.70 <= ratio <= 1.0  # paper: ~83%

    def test_medians_agree(self, results):
        tt, ideal = results
        tt_med = percentile([s.rtt_ns for s in tt.samples], 50)
        dart_med = percentile([s.rtt_ns for s in ideal.samples], 50)
        assert abs(tt_med - dart_med) / tt_med < 0.15

    def test_dart_not_biased_toward_small_rtts(self, results):
        # No bias against large RTTs (paper §6.1): Dart's upper
        # percentiles are not systematically below tcptrace's by more
        # than tcptrace's own recovery-inflation artifacts.  (A specific
        # straggler can still be lost to a duplicate-ACK collapse —
        # the conservatism §7 documents — so this is a distributional
        # check, not a per-sample one.)
        tt, ideal = results
        tt_p95 = percentile([s.rtt_ns for s in tt.samples], 95)
        dart_p95 = percentile([s.rtt_ns for s in ideal.samples], 95)
        assert dart_p95 <= tt_p95 * 1.25
        assert dart_p95 >= tt_p95 * 0.4


class TestConstrainedDart:
    def test_small_pt_loses_samples_not_correctness(self, campus,
                                                    leg_external):
        ideal = tcptrace_const(leg_filter=leg_external())
        constrained = Dart(
            DartConfig(rt_slots=1 << 18, pt_slots=1 << 6,
                       max_recirculations=1),
            leg_filter=leg_external(),
        )
        run_engine(campus.records, ideal, constrained)
        perf = evaluate_dart(
            [s.rtt_ns for s in ideal.samples],
            [s.rtt_ns for s in constrained.samples],
            recirculations=constrained.stats.recirculations,
            packets_processed=constrained.stats.packets_processed,
        )
        assert perf.fraction_collected < 100.0
        assert abs(perf.error_p50) < 15.0
        assert constrained.stats.recirculations > 0

    def test_larger_pt_collects_more(self, campus, leg_external):
        small = Dart(DartConfig(rt_slots=1 << 18, pt_slots=1 << 5),
                     leg_filter=leg_external())
        large = Dart(DartConfig(rt_slots=1 << 18, pt_slots=1 << 12),
                     leg_filter=leg_external())
        run_engine(campus.records, small, large)
        assert large.stats.samples > small.stats.samples

    def test_pt_occupancy_bounded_by_size(self, campus, leg_external):
        dart = Dart(DartConfig(rt_slots=1 << 18, pt_slots=64),
                    leg_filter=leg_external())
        run_engine(campus.records, dart)
        _, pt_occ = dart.occupancy()
        assert pt_occ <= 64


class TestStrawmanComparison:
    def test_strawman_emits_ambiguous_samples(self, campus, leg_external):
        strawman = Strawman(leg_filter=leg_external())
        ideal = tcptrace_const(leg_filter=leg_external())
        run_engine(campus.records, strawman, ideal)
        # The strawman matches everything it can, ambiguity included, so
        # on a lossy/reordering trace it emits at least as many samples.
        assert strawman.stats.samples >= ideal.stats.samples


class TestPcapPipeline:
    def test_trace_survives_pcap_roundtrip(self, campus, tmp_path,
                                           leg_external):
        path = tmp_path / "campus.pcap"
        subset = campus.records[:3000]
        write_packets(path, subset)
        direct = Dart(ideal_config(), leg_filter=leg_external())
        from_disk = Dart(ideal_config(), leg_filter=leg_external())
        run_engine(subset, direct)
        run_engine(read_packets(path), from_disk)
        assert direct.stats.samples == from_disk.stats.samples
        assert [s.rtt_ns for s in direct.samples] == [
            s.rtt_ns for s in from_disk.samples
        ]


def _stream_strategy():
    """Random interleavings of data/ack packets over a few flows."""
    event = st.tuples(
        st.integers(min_value=0, max_value=2),           # flow index
        st.sampled_from(["data", "ack"]),
        st.integers(min_value=0, max_value=40),          # segment index
    )
    return st.lists(event, min_size=1, max_size=120)


class TestFuzzInvariants:
    @given(_stream_strategy())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_dart_samples_well_formed_on_arbitrary_streams(self, events):
        dart = Dart(ideal_config())
        seen_data = set()
        t = 0
        for flow_idx, kind, index in events:
            t += 1_000_000
            client = 0x0A000001 + flow_idx
            seq = 1_000 + index * 100
            if kind == "data":
                record = PacketRecord(
                    timestamp_ns=t, src_ip=client, dst_ip=0x10000001,
                    src_port=40000, dst_port=443, seq=seq, ack=1,
                    flags=tcpf.FLAG_ACK, payload_len=100,
                )
                seen_data.add((client, record.eack))
                dart.process(record)
            else:
                record = PacketRecord(
                    timestamp_ns=t, src_ip=0x10000001, dst_ip=client,
                    src_port=443, dst_port=40000, seq=1, ack=seq + 100,
                    flags=tcpf.FLAG_ACK, payload_len=0,
                )
                for sample in dart.process(record):
                    # Every sample must be non-negative and anchored to
                    # a data packet that actually passed the monitor.
                    assert sample.rtt_ns >= 0
                    assert (sample.flow.src_ip, sample.eack) in seen_data

    @given(_stream_strategy())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_constrained_never_crashes_and_counts_consistent(self, events):
        dart = Dart(DartConfig(rt_slots=8, pt_slots=4, pt_stages=2,
                               max_recirculations=3))
        t = 0
        for flow_idx, kind, index in events:
            t += 1_000_000
            client = 0x0A000001 + flow_idx
            seq = 1_000 + index * 100
            if kind == "data":
                dart.process(PacketRecord(
                    timestamp_ns=t, src_ip=client, dst_ip=0x10000001,
                    src_port=40000, dst_port=443, seq=seq, ack=1,
                    flags=tcpf.FLAG_ACK, payload_len=100,
                ))
            else:
                dart.process(PacketRecord(
                    timestamp_ns=t, src_ip=0x10000001, dst_ip=client,
                    src_port=443, dst_port=40000, seq=1, ack=seq + 100,
                    flags=tcpf.FLAG_ACK, payload_len=0,
                ))
        check_balance(dart)
        assert dart.stats.packets_processed == len(events)
        _, pt_occ = dart.occupancy()
        assert pt_occ <= 4

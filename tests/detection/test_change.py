"""Tests for the interception-attack detector (paper §5.2, Fig 8)."""


from repro.core.flow import FlowKey
from repro.core.samples import RttSample
from repro.detection import (
    DetectionState,
    DetectorConfig,
    InterceptionDetector,
    packets_between,
)

MS = 1_000_000
FLOW = FlowKey(src_ip=1, dst_ip=2, src_port=3, dst_port=4)


def sample(rtt_ms, t_ms):
    return RttSample(flow=FLOW, rtt_ns=int(rtt_ms * MS),
                     timestamp_ns=int(t_ms * MS), eack=0)


def feed(detector, rtt_ms, count, start_ms=0.0, step_ms=10.0):
    t = start_ms
    for _ in range(count):
        detector.add(sample(rtt_ms, t))
        t += step_ms
    return t


class TestBaseline:
    def test_learning_then_normal(self):
        detector = InterceptionDetector()
        assert detector.state is DetectionState.LEARNING
        feed(detector, 25, 8 * 3)  # 3 full windows of 8
        assert detector.state is DetectionState.NORMAL
        assert detector.baseline_ns == 25 * MS

    def test_baseline_is_min_of_learning_windows(self):
        detector = InterceptionDetector()
        feed(detector, 30, 8)
        feed(detector, 20, 8, start_ms=100)
        feed(detector, 28, 8, start_ms=200)
        assert detector.baseline_ns == 20 * MS


class TestDetection:
    def attack_detector(self):
        detector = InterceptionDetector()
        feed(detector, 25, 24)  # establish baseline at 25 ms
        return detector

    def test_sustained_rise_confirms(self):
        detector = self.attack_detector()
        t = feed(detector, 120, 8, start_ms=1000)   # suspected
        assert detector.state is DetectionState.SUSPECTED
        feed(detector, 120, 8, start_ms=t)          # confirmed
        assert detector.state is DetectionState.CONFIRMED
        assert detector.suspected_at_ns is not None
        assert detector.confirmed_at_ns > detector.suspected_at_ns

    def test_transient_spike_clears(self):
        detector = self.attack_detector()
        feed(detector, 120, 8, start_ms=1000)
        assert detector.state is DetectionState.SUSPECTED
        feed(detector, 25, 8, start_ms=2000)
        assert detector.state is DetectionState.NORMAL
        assert detector.confirmed_at_ns is None

    def test_small_rise_not_suspected(self):
        detector = self.attack_detector()
        feed(detector, 40, 16, start_ms=1000)  # < 2x baseline
        assert detector.state is DetectionState.NORMAL

    def test_outlier_samples_do_not_trigger(self):
        # Min-filtering ignores isolated spikes within a window.
        detector = self.attack_detector()
        for i in range(8):
            rtt = 500 if i % 2 else 25
            detector.add(sample(rtt, 1000 + i * 10))
        assert detector.state is DetectionState.NORMAL

    def test_reset_relearns(self):
        detector = self.attack_detector()
        feed(detector, 120, 16, start_ms=1000)
        assert detector.state is DetectionState.CONFIRMED
        detector.reset()
        assert detector.state is DetectionState.LEARNING
        feed(detector, 120, 24, start_ms=3000)
        assert detector.state is DetectionState.NORMAL
        assert detector.baseline_ns == 120 * MS

    def test_custom_config(self):
        detector = InterceptionDetector(
            DetectorConfig(window_samples=4, rise_factor=3.0,
                           baseline_windows=1)
        )
        feed(detector, 25, 4)
        assert detector.state is DetectionState.NORMAL
        feed(detector, 60, 8, start_ms=1000)  # 2.4x < 3.0x
        assert detector.state is DetectionState.NORMAL
        feed(detector, 90, 8, start_ms=2000)  # 3.6x
        assert detector.state is DetectionState.CONFIRMED

    def test_events_recorded_in_order(self):
        detector = self.attack_detector()
        feed(detector, 120, 16, start_ms=1000)
        states = [e.state for e in detector.events]
        assert states == [
            DetectionState.NORMAL,
            DetectionState.SUSPECTED,
            DetectionState.CONFIRMED,
        ]


class TestEndToEnd:
    def test_attack_trace_confirmed_within_paper_envelope(self):
        from repro.core import Dart, LegFilter, ideal_config
        from repro.traces import generate_attack_trace

        trace = generate_attack_trace()
        detector = InterceptionDetector()
        dart = Dart(
            ideal_config(),
            leg_filter=LegFilter(trace.internal, legs=("external",)),
        )
        for record in trace.records:
            for s in dart.process(record):
                detector.add(s)
        attack_at = trace.config.attack_at_ns
        assert detector.confirmed_at_ns is not None
        assert detector.confirmed_at_ns > attack_at
        exchanged = packets_between(
            trace.records, attack_at, detector.confirmed_at_ns
        )
        # Paper: 63 packets / 2.58 s; allow a generous envelope.
        assert exchanged < 200
        assert (detector.confirmed_at_ns - attack_at) < 5_000_000_000


class TestPacketsBetween:
    def test_counts_inclusive_range(self):
        from repro.net import tcp as tcpf
        from repro.net.packet import PacketRecord

        records = [
            PacketRecord(timestamp_ns=t, src_ip=1, dst_ip=2, src_port=3,
                         dst_port=4, seq=0, ack=0, flags=tcpf.FLAG_ACK,
                         payload_len=0)
            for t in (5, 10, 15, 20)
        ]
        assert packets_between(records, 10, 15) == 2
        assert packets_between(records, 0, 100) == 4
        assert packets_between(records, 21, 30) == 0

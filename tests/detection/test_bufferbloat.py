"""Tests for the §7 bufferbloat detector."""

import pytest

from repro.core.flow import FlowKey
from repro.core.samples import RttSample
from repro.detection import BufferbloatConfig, BufferbloatDetector

MS = 1_000_000
SEC = 1_000_000_000
FLOW = FlowKey(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
OTHER = FlowKey(src_ip=5, dst_ip=6, src_port=7, dst_port=8)


def sample(rtt_ms, t_ms, flow=FLOW):
    return RttSample(flow=flow, rtt_ns=int(rtt_ms * MS),
                     timestamp_ns=int(t_ms * MS), eack=0)


def feed_window(detector, rtt_fn, start_ms, count=20, span_ms=900,
                flow=FLOW):
    episode = None
    for i in range(count):
        t = start_ms + i * span_ms / count
        episode = detector.add(sample(rtt_fn(i), t, flow)) or episode
    return episode


class TestBufferbloatDetector:
    def detector(self, **kwargs):
        return BufferbloatDetector(BufferbloatConfig(**kwargs))

    def test_stable_rtts_no_episode(self):
        detector = self.detector()
        for window in range(6):
            feed_window(detector, lambda i: 20 + (i % 3), window * 1000)
        assert detector.episodes == []

    def test_bloat_signature_detected(self):
        # Propagation stays ~20 ms; queueing inflates the p90 10x.
        detector = self.detector()
        feed_window(detector, lambda i: 20 + (i % 3), 0)
        feed_window(detector, lambda i: 20 + (i % 3), 1000)
        bloated = lambda i: 20 if i == 0 else 200 + 10 * (i % 5)
        feed_window(detector, bloated, 2000)
        feed_window(detector, bloated, 3000)
        feed_window(detector, bloated, 4000)
        assert detector.episodes
        first = detector.episodes[0]
        assert first.key == FLOW
        assert first.inflation > 5
        assert first.baseline_min_ns == pytest.approx(20 * MS, rel=0.1)

    def test_minimum_shift_alone_is_not_bloat(self):
        # A clean RTT step (like an interception) shifts min and p90
        # together: no within-window spread, so it is NOT bufferbloat
        # even though the level rise is far beyond the inflation factor.
        detector = self.detector(inflation_factor=4.0)
        feed_window(detector, lambda i: 20, 0)
        for w in range(1, 6):
            feed_window(detector, lambda i: 120 + (i % 3), w * 1000)
        assert detector.episodes == []

    def test_sustain_requirement(self):
        detector = self.detector(sustain_windows=3)
        feed_window(detector, lambda i: 20, 0)
        bloated = lambda i: 20 if i == 0 else 300
        feed_window(detector, bloated, 1000)
        feed_window(detector, bloated, 2000)
        assert detector.episodes == []  # only 2 elevated windows closed
        feed_window(detector, bloated, 3000)
        feed_window(detector, lambda i: 20, 4000)
        assert len(detector.episodes) == 1

    def test_transient_spike_resets(self):
        detector = self.detector(sustain_windows=2)
        feed_window(detector, lambda i: 20, 0)
        bloated = lambda i: 20 if i == 0 else 300
        feed_window(detector, bloated, 1000)         # one bad window
        feed_window(detector, lambda i: 20, 2000)    # recovers
        feed_window(detector, bloated, 3000)         # another single
        feed_window(detector, lambda i: 20, 4000)
        feed_window(detector, lambda i: 21, 5000)
        assert detector.episodes == []

    def test_sparse_windows_skipped(self):
        detector = self.detector(min_samples_per_window=10)
        for w in range(6):
            feed_window(detector, lambda i: 20 if i == 0 else 300,
                        w * 1000, count=3)
        assert detector.episodes == []

    def test_keys_are_independent(self):
        detector = self.detector()
        for w in range(2):
            feed_window(detector, lambda i: 20, w * 1000, flow=FLOW)
            feed_window(detector, lambda i: 20, w * 1000, flow=OTHER)
        for w in range(2, 6):
            feed_window(detector, lambda i: 20 if i == 0 else 300,
                        w * 1000, flow=FLOW)
            feed_window(detector, lambda i: 21, w * 1000, flow=OTHER)
        keys = {e.key for e in detector.episodes}
        assert keys == {FLOW}

    def test_one_episode_until_recovery(self):
        detector = self.detector(sustain_windows=2)
        feed_window(detector, lambda i: 20, 0)
        for w in range(1, 8):
            feed_window(detector, lambda i: 20 if i == 0 else 300,
                        w * 1000)
        assert len(detector.episodes) == 1  # not re-confirmed every window


class TestEndToEndBloat:
    def test_emergent_queue_sawtooth_detected(self):
        """A bulk upload through a 10 Mbps / 100 ms-buffer bottleneck:
        loss-based congestion control sawtooths through the buffer, so
        windows contain both floor-riding and queue-inflated samples —
        the spread fingerprint — and the detector confirms bufferbloat
        from Dart's sample stream with no scripted delay anywhere."""
        from repro.core import Dart, LegFilter, ideal_config
        from repro.net.inet import InternalNetwork
        from repro.simnet import (
            Connection,
            ConnectionSpec,
            EventLoop,
            LegProfile,
            MonitorTap,
            SimRandom,
        )

        loop = EventLoop()
        tap = MonitorTap(loop)
        spec = ConnectionSpec(
            client_ip=0x0A010001, client_port=40000,
            server_ip=0x10000001, server_port=443,
            request_bytes=60_000_000,  # a long upload
            response_bytes=200,
            internal=LegProfile(delay_ns=1 * MS, jitter_fraction=0.02),
            external=LegProfile(delay_ns=10 * MS, jitter_fraction=0.03,
                                bandwidth_bps=10_000_000,
                                queue_limit_ns=100 * MS),
            auto_close=False,
        )
        Connection(loop, SimRandom(3), tap, spec).start()
        loop.run(until_ns=45 * SEC)

        detector = BufferbloatDetector(
            BufferbloatConfig(window_ns=10 * SEC,
                              min_samples_per_window=50)
        )
        dart = Dart(ideal_config(),
                    leg_filter=LegFilter(InternalNetwork([(0x0A000000, 8)]),
                                         legs=("external",)))
        for record in tap.trace:
            for s in dart.process(record):
                detector.add(s)
        assert detector.episodes
        episode = detector.episodes[0]
        assert episode.inflation > 4
        # The propagation floor (~22 ms) is intact underneath.
        assert episode.baseline_min_ns < 30 * MS

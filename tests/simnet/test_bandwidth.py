"""Tests for the FIFO bandwidth/queueing model."""

import pytest

from repro.net import tcp as tcpf
from repro.simnet import (
    Connection,
    ConnectionSpec,
    EventLoop,
    LegProfile,
    Link,
    MonitorTap,
    SimRandom,
    SimSegment,
)
from repro.simnet.link import WIRE_OVERHEAD_BYTES

MS = 1_000_000
SEC = 1_000_000_000


def segment(length=1442):
    return SimSegment(
        src_ip=1, dst_ip=2, src_port=3, dst_port=4, seq=0, ack=0,
        flags=tcpf.FLAG_ACK, payload_len=length,
    )


class TestSerialization:
    def test_single_segment_takes_tx_time(self):
        loop = EventLoop()
        # 1442B payload + 58B overhead = 1500B = 12000 bits at 12 Mbps
        # -> exactly 1 ms of serialization.
        link = Link(loop, SimRandom(0), delay_ns=5 * MS, jitter_fraction=0,
                    bandwidth_bps=12_000_000)
        out = []
        link.connect(lambda s: out.append(loop.now_ns))
        link.send(segment())
        loop.run()
        assert out[0] == 6 * MS  # 1 ms tx + 5 ms propagation

    def test_burst_queues_fifo(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=0, jitter_fraction=0,
                    bandwidth_bps=12_000_000)
        out = []
        link.connect(lambda s: out.append(loop.now_ns))
        for _ in range(10):
            link.send(segment())
        loop.run()
        # Each segment serializes for 1 ms behind its predecessors.
        assert out == [i * MS for i in range(1, 11)]
        assert link.stats.max_queue_delay_ns == 10 * MS

    def test_queue_drains_when_idle(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=0, jitter_fraction=0,
                    bandwidth_bps=12_000_000)
        out = []
        link.connect(lambda s: out.append(loop.now_ns))
        link.send(segment())
        loop.run()                                 # delivered at t=1 ms
        loop.schedule(10 * MS, link.send, segment())  # sent at t=11 ms
        loop.run()
        # The second segment found an idle wire: 1 ms tx only.
        assert out == [1 * MS, 12 * MS]

    def test_small_segments_serialize_faster(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=0, jitter_fraction=0,
                    bandwidth_bps=12_000_000)
        out = []
        link.connect(lambda s: out.append(loop.now_ns))
        link.send(segment(length=1500 - WIRE_OVERHEAD_BYTES))
        link.send(segment(length=150 - WIRE_OVERHEAD_BYTES))
        loop.run()
        assert out[0] == 1 * MS
        assert out[1] == pytest.approx(1.1 * MS, abs=1000)

    def test_infinite_capacity_by_default(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=1 * MS, jitter_fraction=0)
        out = []
        link.connect(lambda s: out.append(loop.now_ns))
        for _ in range(100):
            link.send(segment())
        loop.run()
        assert link.stats.max_queue_delay_ns == 0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            Link(EventLoop(), SimRandom(0), delay_ns=0, bandwidth_bps=0)


class TestEmergentBufferbloat:
    def test_bulk_transfer_inflates_rtt_on_slow_link(self):
        """A bulk upload through a 10 Mbps bottleneck builds queueing
        delay that Dart observes as RTT inflation — bufferbloat emerging
        from load, not from a scripted delay."""
        from repro.core import Dart, LegFilter, ideal_config
        from repro.net.inet import InternalNetwork

        def run(bandwidth):
            loop = EventLoop()
            tap = MonitorTap(loop)
            spec = ConnectionSpec(
                client_ip=0x0A010001, client_port=40000,
                server_ip=0x10000001, server_port=443,
                request_bytes=2_000_000, response_bytes=200,
                internal=LegProfile(delay_ns=1 * MS, jitter_fraction=0),
                external=LegProfile(delay_ns=10 * MS, jitter_fraction=0,
                                    bandwidth_bps=bandwidth),
            )
            spec.tcp.max_cwnd = 64
            Connection(loop, SimRandom(5), tap, spec).start()
            loop.run(until_ns=60 * SEC)
            dart = Dart(ideal_config(),
                        leg_filter=LegFilter(
                            InternalNetwork([(0x0A000000, 8)]),
                            legs=("external",)))
            for record in tap.trace:
                dart.process(record)
            rtts = sorted(s.rtt_ms for s in dart.samples)
            return rtts

        fast = run(None)
        slow = run(10_000_000)
        assert fast and slow
        # Unlimited capacity: RTT stays near 2x10 ms; bottlenecked: the
        # standing queue inflates the upper percentiles well beyond it.
        assert fast[-1] < 40
        assert slow[int(len(slow) * 0.9)] > 60

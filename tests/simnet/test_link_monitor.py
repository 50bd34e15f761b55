"""Tests for the link model and the monitor tap."""

import pytest

from repro.net import tcp as tcpf
from repro.net.inet import InternalNetwork
from repro.simnet.engine import EventLoop
from repro.simnet.link import Link
from repro.simnet.monitor import MonitorTap
from repro.simnet.rng import SimRandom
from repro.simnet.segment import SimSegment

MS = 1_000_000


def segment(seq=0):
    return SimSegment(
        src_ip=0x0A000001, dst_ip=0x10000001, src_port=1, dst_port=2,
        seq=seq, ack=0, flags=tcpf.FLAG_ACK, payload_len=100,
    )


def collector():
    out = []
    return out, out.append


class TestLink:
    def test_delivery_after_delay(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=5 * MS, jitter_fraction=0)
        out, handler = collector()
        link.connect(handler)
        link.send(segment())
        loop.run()
        assert len(out) == 1
        assert loop.now_ns == 5 * MS
        assert link.stats.delivered == 1

    def test_unconnected_link_raises(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=1)
        with pytest.raises(RuntimeError):
            link.send(segment())

    def test_loss_drops(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(0), delay_ns=1, loss_rate=0.5)
        out, handler = collector()
        link.connect(handler)
        for i in range(2000):
            link.send(segment(i))
        loop.run()
        assert 700 <= len(out) <= 1300
        assert link.stats.dropped + link.stats.delivered == 2000

    def test_fifo_order_preserved_under_jitter(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(3), delay_ns=1 * MS, jitter_fraction=0.5)
        out, handler = collector()
        link.connect(handler)
        for i in range(500):
            loop.schedule_at(i * 1000, link.send, segment(i))
        loop.run()
        assert [s.seq for s in out] == list(range(500))

    def test_reordering_events_overtake(self):
        loop = EventLoop()
        link = Link(loop, SimRandom(1), delay_ns=1 * MS, jitter_fraction=0,
                    reorder_rate=0.2, reorder_extra_ns=5 * MS)
        out, handler = collector()
        link.connect(handler)
        for i in range(300):
            loop.schedule_at(i * 10_000, link.send, segment(i))
        loop.run()
        seqs = [s.seq for s in out]
        assert seqs != sorted(seqs)
        assert link.stats.reordered > 0

    def test_time_varying_delay(self):
        loop = EventLoop()
        delay = lambda now: 1 * MS if now < 10 * MS else 20 * MS
        link = Link(loop, SimRandom(0), delay_ns=delay, jitter_fraction=0)
        out = []
        link.connect(lambda s: out.append(loop.now_ns))
        link.send(segment())
        loop.run(until_ns=9 * MS)
        loop.schedule_at(15 * MS, link.send, segment(1))
        loop.run()
        assert out[0] == 1 * MS
        assert out[1] == 35 * MS

    def test_rejects_bad_rates(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            Link(loop, SimRandom(0), delay_ns=1, loss_rate=1.5)
        with pytest.raises(ValueError):
            Link(loop, SimRandom(0), delay_ns=1, reorder_rate=-0.1)


class TestMonitorTap:
    def test_observe_stamps_virtual_time(self):
        loop = EventLoop()
        tap = MonitorTap(loop)
        loop.schedule_at(7 * MS, tap.observe, segment())
        loop.run()
        assert tap.trace[0].timestamp_ns == 7 * MS

    def test_live_consumers_called(self):
        loop = EventLoop()
        seen = []
        tap = MonitorTap(loop, consumers=[seen.append])
        tap.observe(segment())
        assert len(seen) == 1 and len(tap.trace) == 1

    def test_keep_trace_disabled(self):
        loop = EventLoop()
        tap = MonitorTap(loop, keep_trace=False)
        tap.observe(segment())
        assert tap.trace == [] and tap.observed == 1

    def test_tap_and_forward_to_link(self):
        loop = EventLoop()
        tap = MonitorTap(loop)
        downstream = Link(loop, SimRandom(0), delay_ns=1)
        out, handler = collector()
        downstream.connect(handler)
        entry = tap.tap_and_forward(downstream)
        entry(segment())
        loop.run()
        assert tap.observed == 1 and len(out) == 1

    def test_tap_and_forward_to_callable(self):
        loop = EventLoop()
        tap = MonitorTap(loop)
        out, handler = collector()
        entry = tap.tap_and_forward(handler)
        entry(segment())
        assert tap.observed == 1 and len(out) == 1


class TestInternalNetwork:
    def test_membership(self):
        net = InternalNetwork([(0x0A010000, 16), (0x0A020000, 16)])
        assert 0x0A0100FF in net
        assert 0x0A02AB01 in net
        assert 0x10000001 not in net

    def test_host_bits_cleared(self):
        net = InternalNetwork([(0x0A0103FF, 16)])  # messy host bits
        assert 0x0A01FFFF in net
        assert 0x0A020000 not in net

"""Tests for segment/monitor IPv6 plumbing and dual-stack wiring."""


from repro.net import tcp as tcpf
from repro.net.inet import InternalNetwork, ipv6_to_int
from repro.simnet import (
    Connection,
    ConnectionSpec,
    EventLoop,
    LegProfile,
    MonitorTap,
    SimRandom,
    SimSegment,
)

MS = 1_000_000

CLIENT6 = ipv6_to_int("2001:db8:1::9")
SERVER6 = ipv6_to_int("2400:cb00::17")


class TestSimSegmentIpv6:
    def test_record_carries_family(self):
        segment = SimSegment(
            src_ip=CLIENT6, dst_ip=SERVER6, src_port=1, dst_port=2,
            seq=0, ack=0, flags=tcpf.FLAG_ACK, payload_len=0, ipv6=True,
        )
        record = segment.to_record(5)
        assert record.ipv6
        assert record.src_ip == CLIENT6

    def test_default_is_v4(self):
        segment = SimSegment(src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                             seq=0, ack=0, flags=0, payload_len=0)
        assert not segment.to_record(0).ipv6


class TestInternalNetworkDualStack:
    def test_v6_prefix_membership(self):
        net = InternalNetwork([
            (0x0A010000, 16),
            (ipv6_to_int("2001:db8:1::"), 48, 128),
        ])
        assert 0x0A010001 in net
        assert CLIENT6 in net
        assert SERVER6 not in net
        assert 0x0B000001 not in net

    def test_v6_address_never_matches_v4_prefix(self):
        # A v6 address whose low 32 bits fall inside a v4 prefix must
        # not be classified as internal by that v4 prefix.
        net = InternalNetwork([(0x0A010000, 16)])
        aliased = (1 << 64) | 0x0A010005
        assert aliased not in net


class TestIpv6Connection:
    def test_full_v6_transfer_through_monitor(self):
        loop = EventLoop()
        tap = MonitorTap(loop)
        spec = ConnectionSpec(
            client_ip=CLIENT6, client_port=40000,
            server_ip=SERVER6, server_port=443,
            request_bytes=500, response_bytes=40_000,
            internal=LegProfile(delay_ns=1 * MS, jitter_fraction=0),
            external=LegProfile(delay_ns=8 * MS, jitter_fraction=0),
            ipv6=True,
        )
        conn = Connection(loop, SimRandom(1), tap, spec)
        conn.start()
        loop.run()
        assert conn.client.app_bytes_delivered == 40_000
        assert all(r.ipv6 for r in tap.trace)

    def test_v6_rtt_measured_by_dart(self):
        from repro.core import Dart, LegFilter, ideal_config

        loop = EventLoop()
        tap = MonitorTap(loop)
        spec = ConnectionSpec(
            client_ip=CLIENT6, client_port=40000,
            server_ip=SERVER6, server_port=443,
            request_bytes=500, response_bytes=40_000,
            internal=LegProfile(delay_ns=1 * MS, jitter_fraction=0),
            external=LegProfile(delay_ns=8 * MS, jitter_fraction=0),
            ipv6=True,
        )
        Connection(loop, SimRandom(1), tap, spec).start()
        loop.run()
        internal = InternalNetwork([(ipv6_to_int("2001:db8:1::"), 48, 128)])
        dart = Dart(ideal_config(),
                    leg_filter=LegFilter(internal, legs=("internal",)))
        for record in tap.trace:
            dart.process(record)
        assert dart.stats.samples > 0
        medians = sorted(s.rtt_ms for s in dart.samples)
        assert 1.9 <= medians[len(medians) // 2] <= 2.6  # ~2 ms internal

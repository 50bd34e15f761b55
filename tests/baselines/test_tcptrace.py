"""Tests for the tcptrace reimplementation."""


from repro.baselines import TcpTrace, tcptrace_const
from repro.net import tcp as tcpf
from repro.net.packet import PacketRecord

MS = 1_000_000
CLIENT = 0x0A000001
SERVER = 0x10000001


def pkt(t_ms, src, dst, sport, dport, seq, ack, flags, length):
    return PacketRecord(
        timestamp_ns=int(t_ms * MS), src_ip=src, dst_ip=dst,
        src_port=sport, dst_port=dport, seq=seq, ack=ack, flags=flags,
        payload_len=length,
    )


def data(t_ms, seq, length=100):
    return pkt(t_ms, CLIENT, SERVER, 40000, 443, seq, 1,
               tcpf.FLAG_ACK | tcpf.FLAG_PSH, length)


def ack_of(t_ms, ack):
    return pkt(t_ms, SERVER, CLIENT, 443, 40000, 1, ack, tcpf.FLAG_ACK, 0)


class TestBasicMatching:
    def test_single_sample(self):
        tt = TcpTrace()
        tt.process(data(0, 1000))
        samples = tt.process(ack_of(30, 1100))
        assert len(samples) == 1
        assert samples[0].rtt_ns == 30 * MS

    def test_cumulative_ack_single_exact_sample(self):
        tt = TcpTrace()
        tt.process(data(0, 1000))
        tt.process(data(1, 1100))
        samples = tt.process(ack_of(30, 1200))
        assert len(samples) == 1
        assert samples[0].eack == 1200
        assert tt.open_segments() == 0  # both retired

    def test_duplicate_ack_no_sample(self):
        tt = TcpTrace()
        tt.process(data(0, 1000))
        tt.process(ack_of(10, 1100))
        assert tt.process(ack_of(11, 1100)) == []

    def test_old_ack_no_sample(self):
        tt = TcpTrace()
        tt.process(data(0, 1000))
        tt.process(data(1, 1100))
        tt.process(ack_of(10, 1200))
        assert tt.process(ack_of(11, 1100)) == []


class TestKarn:
    def test_retransmitted_segment_discarded(self):
        tt = TcpTrace()
        tt.process(data(0, 1000))
        tt.process(data(50, 1000))  # retransmission
        samples = tt.process(ack_of(60, 1100))
        assert samples == []
        assert tt.stats.karn_discards == 1

    def test_other_segments_survive_retransmission(self):
        # Unlike Dart's range collapse, tcptrace only disqualifies the
        # retransmitted segment itself.
        tt = TcpTrace()
        tt.process(data(0, 1000))
        tt.process(data(1, 1100))
        tt.process(data(50, 1000))      # retransmit the first
        samples = tt.process(ack_of(60, 1200))  # exact match: 2nd segment
        assert len(samples) == 1

    def test_below_highest_marks_retransmission(self):
        tt = TcpTrace()
        tt.process(data(0, 1000))
        tt.process(ack_of(10, 1100))
        tt.process(data(20, 950, length=150))  # overlaps old bytes
        assert tt.stats.retransmissions_marked == 1


class TestMultiRangeTracking:
    def test_hole_does_not_lose_lower_segments(self):
        # Dart keeps only the range ahead of a hole; tcptrace keeps all.
        tt = TcpTrace()
        tt.process(data(0, 1000))           # [1000, 1100)
        tt.process(data(1, 1500))           # hole, [1500, 1600)
        first = tt.process(ack_of(10, 1100))
        assert len(first) == 1              # the below-hole sample survives
        second = tt.process(ack_of(12, 1600))
        assert len(second) == 1


class TestQuadrantBug:
    def test_quadrant_spanning_segment_double_counted(self):
        tt = TcpTrace(emulate_quadrant_bug=True)
        boundary = 1 << 30
        tt.process(data(0, boundary - 50))  # spans quadrant 0 -> 1
        samples = tt.process(ack_of(10, boundary + 50))
        assert len(samples) == 2
        assert tt.stats.quadrant_extra_samples == 1

    def test_bug_can_be_disabled(self):
        tt = TcpTrace(emulate_quadrant_bug=False)
        boundary = 1 << 30
        tt.process(data(0, boundary - 50))
        samples = tt.process(ack_of(10, boundary + 50))
        assert len(samples) == 1

    def test_non_spanning_segment_single_sample(self):
        tt = TcpTrace(emulate_quadrant_bug=True)
        tt.process(data(0, 1000))
        assert len(tt.process(ack_of(10, 1100))) == 1


class TestWraparound:
    def test_tracks_through_wrap(self):
        # Unlike Dart (which resets), tcptrace follows the sequence space
        # through 2**32.
        tt = TcpTrace()
        high = (1 << 32) - 50
        tt.process(data(0, high))            # wraps: [high, high+100)
        samples = tt.process(ack_of(10, 50))
        assert len(samples) >= 1


class TestHandshakeModes:
    def syn(self, t_ms):
        return pkt(t_ms, CLIENT, SERVER, 40000, 443, 999, 0,
                   tcpf.FLAG_SYN, 0)

    def syn_ack(self, t_ms):
        return pkt(t_ms, SERVER, CLIENT, 443, 40000, 4999, 1000,
                   tcpf.FLAG_SYN | tcpf.FLAG_ACK, 0)

    def test_plus_syn_handshake_sample(self):
        tt = TcpTrace(track_handshake=True)
        tt.process(self.syn(0))
        samples = tt.process(self.syn_ack(20))
        assert len(samples) == 1
        assert samples[0].handshake

    def test_minus_syn_ignores(self):
        tt = TcpTrace(track_handshake=False)
        tt.process(self.syn(0))
        assert tt.process(self.syn_ack(20)) == []
        assert tt.stats.ignored_syn == 2

    def test_rst_ignored(self):
        tt = TcpTrace()
        rst = pkt(0, CLIENT, SERVER, 40000, 443, 1, 0, tcpf.FLAG_RST, 0)
        assert tt.process(rst) == []


class TestLegFilter:
    def test_leg_filter_limits_data_tracking(self):
        from repro.core import LegFilter
        from repro.net.inet import InternalNetwork

        leg = LegFilter(InternalNetwork([(0x0A000000, 8)]),
                        legs=("external",))
        tt = TcpTrace(leg_filter=leg)
        tt.process(data(0, 1000))  # outbound, tracked
        inbound = pkt(1, SERVER, CLIENT, 443, 40000, 7000, 900,
                      tcpf.FLAG_ACK, 300)  # inbound data, skipped
        tt.process(inbound)
        assert tt.open_segments() == 1


class TestTcptraceConst:
    def test_is_ideal_minus_syn_dart(self):
        dart = tcptrace_const()
        assert dart.config.ideal
        assert not dart.config.track_handshake

"""End-to-end tests for the Dart pipeline (paper Fig 3)."""

import pytest

from repro.core import (
    CollectAllAnalytics,
    Dart,
    DartConfig,
    MinFilterAnalytics,
    ideal_config,
    make_leg_filter,
)
from repro.core.hist import DistributionFactory
from repro.core.range_tracker import AckVerdict, SeqVerdict
from repro.net import tcp as tcpf
from repro.net.packet import PacketRecord

MS = 1_000_000

CLIENT = 0x0A000001
SERVER = 0x10000001


def pkt(t_ms, src, dst, sport, dport, seq, ack, flags, length):
    return PacketRecord(
        timestamp_ns=int(t_ms * MS),
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        seq=seq,
        ack=ack,
        flags=flags,
        payload_len=length,
    )


def data(t_ms, seq, length=100, ack=1):
    return pkt(t_ms, CLIENT, SERVER, 40000, 443, seq, ack,
               tcpf.FLAG_ACK | tcpf.FLAG_PSH, length)


def ack_of(t_ms, ack):
    return pkt(t_ms, SERVER, CLIENT, 443, 40000, 1, ack, tcpf.FLAG_ACK, 0)


class TestBasicMatching:
    def test_single_rtt_sample(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        samples = dart.process(ack_of(25, 1100))
        assert len(samples) == 1
        assert samples[0].rtt_ns == 25 * MS
        assert samples[0].eack == 1100

    def test_cumulative_ack_yields_one_sample(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        dart.process(data(1, 1100))
        samples = dart.process(ack_of(30, 1200))
        assert len(samples) == 1
        assert samples[0].eack == 1200
        # The implicitly-acked first packet produced nothing.
        assert dart.stats.samples == 1

    def test_sample_stream_reaches_analytics(self):
        analytics = CollectAllAnalytics()
        dart = Dart(ideal_config(), analytics=analytics)
        dart.process(data(0, 1000))
        dart.process(ack_of(10, 1100))
        assert len(analytics.samples) == 1

    def test_two_flows_independent(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        other = pkt(0, CLIENT + 1, SERVER, 40001, 443, 5000, 1,
                    tcpf.FLAG_ACK, 200)
        dart.process(other)
        s1 = dart.process(ack_of(10, 1100))
        s2 = dart.process(pkt(12, SERVER, CLIENT + 1, 443, 40001, 1, 5200,
                              tcpf.FLAG_ACK, 0))
        assert len(s1) == 1 and len(s2) == 1
        assert s2[0].rtt_ns == 12 * MS


class TestAmbiguityRejection:
    def test_retransmission_produces_no_sample(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        dart.process(data(50, 1000))  # retransmission
        samples = dart.process(ack_of(60, 1100))
        assert samples == []

    def test_duplicate_ack_produces_no_sample_and_collapses(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))        # range [1000, 1100]
        dart.process(data(1, 1100))        # range [1000, 1200]
        dart.process(ack_of(10, 1100))     # valid, left -> 1100
        dart.process(ack_of(11, 1100))     # duplicate -> collapse
        samples = dart.process(ack_of(30, 1200))
        assert samples == []  # everything in flight became ambiguous

    def test_optimistic_ack_ignored(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        samples = dart.process(ack_of(5, 1500))  # beyond the right edge
        assert samples == []
        assert dart.stats.ack_verdicts.get(AckVerdict.OPTIMISTIC) == 1

    def test_sample_resumes_after_collapse(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        dart.process(data(1, 1000))       # retransmission, collapse
        dart.process(data(2, 1100))       # new data beyond old right edge
        samples = dart.process(ack_of(30, 1200))
        assert len(samples) == 1


class TestHandshakeModes:
    def syn(self, t_ms):
        return pkt(t_ms, CLIENT, SERVER, 40000, 443, 999, 0, tcpf.FLAG_SYN, 0)

    def syn_ack(self, t_ms):
        return pkt(t_ms, SERVER, CLIENT, 443, 40000, 4999, 1000,
                   tcpf.FLAG_SYN | tcpf.FLAG_ACK, 0)

    def test_minus_syn_ignores_handshake(self):
        dart = Dart(ideal_config(track_handshake=False))
        dart.process(self.syn(0))
        assert dart.stats.ignored_syn == 1
        samples = dart.process(self.syn_ack(20))
        assert samples == []
        assert dart.stats.ignored_syn == 2

    def test_plus_syn_collects_handshake_rtt(self):
        dart = Dart(ideal_config(track_handshake=True))
        dart.process(self.syn(0))
        samples = dart.process(self.syn_ack(20))
        assert len(samples) == 1
        assert samples[0].handshake
        assert samples[0].rtt_ns == 20 * MS

    def test_syn_flood_creates_no_state_in_minus_syn(self):
        dart = Dart(DartConfig(rt_slots=1 << 8, pt_slots=1 << 8))
        for i in range(1000):
            flood = pkt(i, CLIENT + i, SERVER, 40000 + (i % 1000), 443,
                        i, 0, tcpf.FLAG_SYN, 0)
            dart.process(flood)
        assert dart.occupancy() == (0, 0)

    def test_rst_ignored(self):
        dart = Dart(ideal_config())
        rst = pkt(0, CLIENT, SERVER, 40000, 443, 1, 0, tcpf.FLAG_RST, 0)
        dart.process(rst)
        assert dart.stats.ignored_rst == 1
        assert dart.occupancy() == (0, 0)


class TestLegFilter:
    def leg_filter(self, legs):
        return make_leg_filter(lambda addr: addr >> 24 == 0x0A, legs=legs)

    def test_external_only_tracks_outbound_data(self):
        dart = Dart(ideal_config(), leg_filter=self.leg_filter(("external",)))
        dart.process(data(0, 1000))                 # outbound: tracked
        inbound = pkt(1, SERVER, CLIENT, 443, 40000, 7000, 900,
                      tcpf.FLAG_ACK, 400)           # inbound data: skipped
        dart.process(inbound)
        samples = dart.process(ack_of(20, 1100))
        assert len(samples) == 1
        assert samples[0].leg == "external"
        assert dart.stats.seq_packets == 1

    def test_internal_only_tracks_inbound_data(self):
        dart = Dart(ideal_config(), leg_filter=self.leg_filter(("internal",)))
        inbound = pkt(0, SERVER, CLIENT, 443, 40000, 7000, 1,
                      tcpf.FLAG_ACK, 400)
        dart.process(inbound)
        outbound_ack = pkt(3, CLIENT, SERVER, 40000, 443, 1, 7400,
                           tcpf.FLAG_ACK, 0)
        samples = dart.process(outbound_ack)
        assert len(samples) == 1
        assert samples[0].leg == "internal"
        assert samples[0].rtt_ns == 3 * MS

    def test_both_legs_from_one_connection(self):
        dart = Dart(ideal_config(), leg_filter=self.leg_filter(
            ("external", "internal")))
        dart.process(data(0, 1000))
        dart.process(pkt(20, SERVER, CLIENT, 443, 40000, 7000, 1100,
                         tcpf.FLAG_ACK, 400))
        dart.process(pkt(24, CLIENT, SERVER, 40000, 443, 1100,
                                   7400, tcpf.FLAG_ACK, 0))
        legs = sorted(s.leg for s in dart.samples)
        assert legs == ["external", "internal"]


class TestTargetFilter:
    def test_filtered_packets_not_processed(self):
        from repro.core import TargetFlowTable, TargetRule

        rules = TargetFlowTable([TargetRule(dst_ports=(9999, 9999))])
        dart = Dart(ideal_config(), target_filter=rules.matches)
        dart.process(data(0, 1000))
        assert dart.stats.filtered_out == 1
        assert dart.occupancy() == (0, 0)

    def test_matching_rule_admits_both_directions(self):
        from repro.core import TargetFlowTable, TargetRule

        rules = TargetFlowTable([TargetRule(dst_ports=(443, 443))])
        dart = Dart(ideal_config(), target_filter=rules.matches)
        dart.process(data(0, 1000))
        samples = dart.process(ack_of(10, 1100))  # reverse direction
        assert len(samples) == 1


class TestRecirculation:
    def one_slot_dart(self, max_recirc=1, **kwargs):
        return Dart(DartConfig(rt_slots=1 << 10, pt_slots=1,
                               max_recirculations=max_recirc, **kwargs))

    def flow_pkt(self, t_ms, i, seq, length=100):
        return pkt(t_ms, CLIENT + i, SERVER, 40000, 443, seq, 1,
                   tcpf.FLAG_ACK | tcpf.FLAG_PSH, length)

    def test_collision_recirculates_old_entry(self):
        dart = self.one_slot_dart()
        dart.process(self.flow_pkt(0, 1, 1000))
        dart.process(self.flow_pkt(1, 2, 2000))
        assert dart.stats.evictions >= 1
        assert dart.stats.recirculations >= 1

    def test_older_valid_entry_wins_contention(self):
        # Paper §3.2: a valid old entry gets its second chance; the
        # newcomer self-destructs via cycle detection.
        dart = self.one_slot_dart()
        dart.process(self.flow_pkt(0, 1, 1000))
        dart.process(self.flow_pkt(1, 2, 2000))
        # ACK the *old* flow: its record must still be present.
        samples = dart.process(
            pkt(20, SERVER, CLIENT + 1, 443, 40000, 1, 1100,
                tcpf.FLAG_ACK, 0)
        )
        assert len(samples) == 1
        assert dart.stats.cycle_self_destructs >= 1

    def test_stale_old_entry_self_destructs(self):
        dart = self.one_slot_dart()
        dart.process(self.flow_pkt(0, 1, 1000))
        # The old flow's range collapses (retransmission).
        dart.process(self.flow_pkt(1, 1, 1000))
        dart.process(self.flow_pkt(2, 2, 2000))  # collision
        assert dart.stats.stale_self_destructs >= 1
        # The new flow's record survives and matches.
        samples = dart.process(
            pkt(20, SERVER, CLIENT + 2, 443, 40000, 1, 2100,
                tcpf.FLAG_ACK, 0)
        )
        assert len(samples) == 1

    def test_zero_recirculation_budget_drops(self):
        dart = self.one_slot_dart(max_recirc=0)
        dart.process(self.flow_pkt(0, 1, 1000))
        dart.process(self.flow_pkt(1, 2, 2000))
        assert dart.stats.recirculations == 0
        assert dart.stats.budget_drops >= 1

    def test_recirculations_per_packet_metric(self):
        dart = self.one_slot_dart()
        dart.process(self.flow_pkt(0, 1, 1000))
        dart.process(self.flow_pkt(1, 2, 2000))
        rate = dart.stats.recirculations_per_packet()
        assert rate == dart.stats.recirculations / 2

    def test_delayed_recirculation_defers_reinsertion(self):
        dart = Dart(DartConfig(rt_slots=1 << 10, pt_slots=1,
                               max_recirculations=1,
                               recirculation_delay_packets=2))
        dart.process(self.flow_pkt(0, 1, 1000))
        dart.process(self.flow_pkt(1, 2, 2000))
        # The evicted old record is in the recirc queue, not the table.
        assert dart._recirc_queue
        # Two more packets (plain ACKs for an unknown flow, so no new
        # insertions) elapse the delay and drain the queue.
        dart.process(pkt(2, SERVER, CLIENT + 9, 443, 40000, 1, 77,
                         tcpf.FLAG_ACK, 0))
        dart.process(pkt(3, SERVER, CLIENT + 9, 443, 40000, 1, 77,
                         tcpf.FLAG_ACK, 0))
        assert not dart._recirc_queue


class TestAnalyticsPurge:
    def test_purge_drops_useless_records(self):
        analytics = MinFilterAnalytics(window_samples=100)
        dart = Dart(
            DartConfig(rt_slots=1 << 10, pt_slots=1, max_recirculations=4,
                       analytics_purge=True),
            analytics=analytics,
        )
        # Establish a small current-window minimum for flow 1.
        dart.process(pkt(0, CLIENT + 1, SERVER, 40000, 443, 1000, 1,
                         tcpf.FLAG_ACK, 100))
        dart.process(pkt(1, SERVER, CLIENT + 1, 443, 40000, 1, 1100,
                         tcpf.FLAG_ACK, 0))  # 1 ms sample
        # Track new data for flow 1, then collide much later: its best
        # possible sample can no longer beat the 1 ms minimum.
        dart.process(pkt(2, CLIENT + 1, SERVER, 40000, 443, 1100, 1,
                         tcpf.FLAG_ACK, 100))
        dart.process(pkt(500, CLIENT + 2, SERVER, 40000, 443, 9000, 1,
                         tcpf.FLAG_ACK, 100))
        assert dart.stats.analytics_purges >= 1

    def test_no_purge_when_disabled(self):
        dart = Dart(DartConfig(rt_slots=1 << 10, pt_slots=1,
                               max_recirculations=4, analytics_purge=False))
        dart.process(pkt(0, CLIENT + 1, SERVER, 40000, 443, 1000, 1,
                         tcpf.FLAG_ACK, 100))
        dart.process(pkt(500, CLIENT + 2, SERVER, 40000, 443, 9000, 1,
                         tcpf.FLAG_ACK, 100))
        assert dart.stats.analytics_purges == 0


class TestStats:
    def test_verdict_counters_populated(self):
        dart = Dart(ideal_config())
        dart.process(data(0, 1000))
        dart.process(ack_of(10, 1100))
        assert dart.stats.seq_verdicts[SeqVerdict.NEW_FLOW] == 1
        assert dart.stats.ack_verdicts[AckVerdict.VALID] == 1

    def test_process_trace_and_finalize(self):
        # A trace in one list goes through ``process_batch``; the
        # window it leaves open closes at ``finalize``.
        analytics = MinFilterAnalytics(window_samples=8)
        dart = Dart(ideal_config(), analytics=analytics)
        ack = ack_of(10, 1100)
        samples = dart.process_batch([data(0, 1000), ack])
        assert len(samples) == 1 and not analytics.history
        dart.finalize()
        assert [w.sample_count for w in analytics.history] == [1]
        assert analytics.history[0].closed_at_ns == ack.timestamp_ns


class TestBackwardsClock:
    """An ACK stamped before its data packet (a capture clock that ran
    backwards) is dropped and counted, never emitted as a sample."""

    @pytest.mark.parametrize("with_distribution", [False, True])
    def test_ack_before_its_data_is_dropped_and_counted(
            self, with_distribution):
        analytics = (DistributionFactory()() if with_distribution
                     else CollectAllAnalytics())
        dart = Dart(ideal_config(), analytics=analytics)
        dart.process(data(2, 1000))
        assert dart.process(ack_of(1, 1100)) == []
        assert dart.stats.negative_rtt_drops == 1
        assert dart.stats.samples == 0
        assert list(dart.samples) == []
        # The flow keeps working once the clock is sane again.
        dart.process(data(3, 1100))
        samples = dart.process(ack_of(8, 1200))
        assert [s.rtt_ns for s in samples] == [5 * MS]
        assert dart.stats.negative_rtt_drops == 1

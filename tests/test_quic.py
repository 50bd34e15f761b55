"""Tests for QUIC spin-bit monitoring (paper §7)."""


from repro.quic import (
    QuicPacketRecord,
    QuicScenarioConfig,
    SpinBitMonitor,
    generate_quic_trace,
)

MS = 1_000_000
SEC = 1_000_000_000
CLIENT = 0x0A010909


def is_client(addr):
    return addr >> 24 == 0x0A


def record(t_ms, spin, *, from_client=True, long_header=False):
    src, dst = (CLIENT, 0x20000001) if from_client else (0x20000001, CLIENT)
    return QuicPacketRecord(
        timestamp_ns=int(t_ms * MS), src_ip=src, dst_ip=dst,
        src_port=50443 if from_client else 443,
        dst_port=443 if from_client else 50443,
        spin_bit=spin, long_header=long_header,
    )


class TestSpinBitMonitor:
    def test_edge_to_edge_gives_rtt(self):
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process(record(0, True))     # arm
        monitor.process(record(10, True))    # no edge
        monitor.process(record(25, False))   # first edge: no sample yet
        samples = monitor.process(record(50, True))  # second edge
        assert len(samples) == 1
        assert samples[0].rtt_ns == 25 * MS

    def test_first_edge_produces_no_sample(self):
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process(record(0, True))
        assert monitor.process(record(30, False)) == []
        assert monitor.stats.transitions == 1
        assert monitor.stats.samples == 0

    def test_server_packets_ignored(self):
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process(record(0, True))
        monitor.process(record(5, False, from_client=False))
        assert monitor.stats.wrong_direction_skipped == 1
        # The server's differing spin value must not register as an edge.
        assert monitor.stats.transitions == 0

    def test_long_header_skipped(self):
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process(record(0, True, long_header=True))
        monitor.process(record(1, False, long_header=True))
        assert monitor.stats.long_header_skipped == 2
        assert monitor.stats.transitions == 0

    def test_implausible_sample_discarded(self):
        monitor = SpinBitMonitor(is_client=is_client,
                                 max_plausible_rtt_ns=1 * SEC)
        monitor.process(record(0, True))
        monitor.process(record(10, False))
        # An application-silence gap: the "RTT" would be 100 s.
        assert monitor.process(record(100_010, True)) == []
        assert monitor.stats.implausible_discarded == 1

    def test_multiple_connections_independent(self):
        monitor = SpinBitMonitor(is_client=is_client)
        a = record(0, True)
        b = QuicPacketRecord(
            timestamp_ns=0, src_ip=CLIENT, dst_ip=0x20000002,
            src_port=50444, dst_port=443, spin_bit=True,
        )
        monitor.process(a)
        monitor.process(b)
        monitor.process(record(20, False))
        samples = monitor.process(record(45, True))
        assert len(samples) == 1
        assert samples[0].rtt_ns == 25 * MS


class TestQuicSimulation:
    def test_deterministic(self):
        config = QuicScenarioConfig(duration_ns=3 * SEC)
        assert (generate_quic_trace(config).records
                == generate_quic_trace(config).records)

    def test_spin_period_tracks_rtt(self):
        config = QuicScenarioConfig(one_way_delay_ns=12 * MS,
                                    duration_ns=10 * SEC,
                                    jitter_fraction=0.0)
        trace = generate_quic_trace(config)
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process_batch(trace.records)
        rtts = sorted(s.rtt_ms for s in monitor.samples)
        median = rtts[len(rtts) // 2]
        # The true RTT is 24 ms; spin quantizes up by <= 2 send intervals.
        assert 24.0 <= median <= 24.0 + 2 * config.send_interval_ns / MS

    def test_one_sample_per_rtt_at_most(self):
        config = QuicScenarioConfig(duration_ns=10 * SEC)
        trace = generate_quic_trace(config)
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process_batch(trace.records)
        duration_s = config.duration_ns / SEC
        true_rtt_s = 2 * config.one_way_delay_ns / SEC
        upper_bound = duration_s / true_rtt_s + 2
        assert monitor.stats.samples <= upper_bound

    def test_rtt_step_visible_in_spin_samples(self):
        attack_at = 5 * SEC

        def delay(now_ns):
            return 10 * MS if now_ns < attack_at else 40 * MS

        config = QuicScenarioConfig(one_way_delay_ns=delay,
                                    duration_ns=12 * SEC,
                                    jitter_fraction=0.0)
        trace = generate_quic_trace(config)
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process_batch(trace.records)
        pre = [s.rtt_ms for s in monitor.samples
               if s.timestamp_ns < attack_at]
        post = [s.rtt_ms for s in monitor.samples
                if s.timestamp_ns > attack_at + 2 * SEC]
        assert pre and post
        assert (sorted(post)[len(post) // 2]
                > 2 * sorted(pre)[len(pre) // 2])

    def test_loss_tolerated(self):
        config = QuicScenarioConfig(loss_rate=0.05, duration_ns=8 * SEC)
        trace = generate_quic_trace(config)
        monitor = SpinBitMonitor(is_client=is_client)
        monitor.process_batch(trace.records)
        assert monitor.stats.samples > 10

    def test_handshake_packets_are_long_header(self):
        trace = generate_quic_trace(QuicScenarioConfig(duration_ns=1 * SEC))
        long_headers = [r for r in trace.records if r.long_header]
        assert len(long_headers) == 2 * trace.config.handshake_packets

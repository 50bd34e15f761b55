"""Extension bench (§7): QUIC spin-bit vs Dart's TCP sample rates.

The paper argues the spin bit yields at most one valid RTT sample per
round trip, whereas Dart samples per matched packet.  This bench runs
both over an equivalent session (same path RTT, same duration, steady
bidirectional traffic) and compares sample rates and accuracy, plus the
spin bit's step-change visibility for attack-style RTT shifts.
"""

from repro.analysis import percentile, render_table
from repro.core import Dart, LegFilter, ideal_config
from repro.quic import QuicScenarioConfig, SpinBitMonitor, generate_quic_trace
from repro.traces import AttackTraceConfig, generate_attack_trace

MS = 1_000_000
SEC = 1_000_000_000


def run_comparison():
    duration = 30 * SEC
    # TCP session via the chatty attack-trace generator (no attack:
    # constant RTT), measured by Dart.
    tcp_config = AttackTraceConfig(
        pre_attack_rtt_ns=24 * MS, post_attack_rtt_ns=24 * MS,
        attack_at_ns=duration * 2, duration_ns=duration,
        internal_one_way_ns=0,
        chunk_interval_ns=8 * MS,  # comparable offered load to the QUIC side
    )
    tcp_trace = generate_attack_trace(tcp_config)
    dart = Dart(ideal_config(),
                leg_filter=LegFilter(tcp_trace.internal, legs=("external",)))
    for record in tcp_trace.records:
        dart.process(record)

    quic_config = QuicScenarioConfig(one_way_delay_ns=12 * MS,
                                     duration_ns=duration)
    quic_trace = generate_quic_trace(quic_config)
    spin = SpinBitMonitor(is_client=lambda a: a >> 24 == 10)
    spin.process_batch(quic_trace.records)
    spin.finalize()
    return duration, tcp_trace, dart, quic_trace, spin


def test_quic_spinbit_vs_dart(benchmark, report_sink):
    duration, tcp_trace, dart, quic_trace, spin = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    dart_rtts = [s.rtt_ms for s in dart.samples]
    spin_rtts = [s.rtt_ms for s in spin.samples]
    seconds = duration / SEC
    rows = [
        ["packets observed", len(tcp_trace.records), quic_trace.packets],
        ["RTT samples", len(dart_rtts), len(spin_rtts)],
        ["samples per second", f"{len(dart_rtts) / seconds:.1f}",
         f"{len(spin_rtts) / seconds:.1f}"],
        ["samples per true RTT", f"{len(dart_rtts) / (seconds / 0.024):.2f}",
         f"{len(spin_rtts) / (seconds / 0.024):.2f}"],
        ["samples per observed packet",
         f"{len(dart_rtts) / len(tcp_trace.records):.3f}",
         f"{len(spin_rtts) / quic_trace.packets:.3f}"],
        ["median RTT (ms, true 24)", f"{percentile(dart_rtts, 50):.1f}",
         f"{percentile(spin_rtts, 50):.1f}"],
        ["p95 RTT (ms)", f"{percentile(dart_rtts, 95):.1f}",
         f"{percentile(spin_rtts, 95):.1f}"],
    ]
    report = render_table(
        ["quantity", "Dart on TCP", "spin bit on QUIC"],
        rows,
        title="Extension (§7): per-packet SEQ/ACK matching vs the QUIC "
              "spin bit (one sample per RTT, quantized by send pacing)",
    )
    report_sink(report)
    # The paper's point: the spin bit caps at ~1 sample per RTT no
    # matter how much traffic flows, while Dart samples per packet.
    true_rtts_elapsed = seconds / 0.024
    assert len(spin_rtts) <= true_rtts_elapsed + 2
    assert (len(dart_rtts) / len(tcp_trace.records)
            > 3 * len(spin_rtts) / quic_trace.packets)

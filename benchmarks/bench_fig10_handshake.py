"""Figure 10: memory saved vs RTT samples foregone by skipping SYNs.

The paper's observation: 72.5% of campus connections never complete a
handshake (scans, floods, dead hosts), so ignoring SYN/SYN-ACK packets
avoids Range Tracker state for almost three quarters of all connections
while losing only 4.2% of RTT samples (the handshake samples).
"""

from repro.analysis import format_count, render_table
from repro.core import Dart, ideal_config
from repro.engine import MonitorEngine


def run_handshake_accounting(campus_trace, external_leg):
    plus_syn = Dart(ideal_config(track_handshake=True),
                    leg_filter=external_leg())
    minus_syn = Dart(ideal_config(track_handshake=False),
                     leg_filter=external_leg())
    engine = MonitorEngine()
    engine.add_monitor(plus_syn, name="+syn")
    engine.add_monitor(minus_syn, name="-syn")
    engine.run(campus_trace.records)
    return plus_syn, minus_syn


def test_fig10_handshake_tradeoff(benchmark, campus_trace, external_leg,
                                  report_sink):
    plus_syn, minus_syn = benchmark.pedantic(
        run_handshake_accounting, args=(campus_trace, external_leg),
        rounds=1, iterations=1,
    )
    total = campus_trace.config.connections
    incomplete = campus_trace.incomplete_connections
    incomplete_pct = 100 * incomplete / total
    samples_plus = plus_syn.stats.samples
    samples_minus = minus_syn.stats.samples
    foregone = samples_plus - samples_minus
    foregone_pct = 100 * foregone / samples_plus
    rows = [
        ["total connections", format_count(total), "1.38M"],
        ["incomplete handshakes", format_count(incomplete), "1.00M"],
        ["incomplete fraction", f"{incomplete_pct:.1f}%", "72.5%"],
        ["RTT samples (+SYN)", format_count(samples_plus), "7.53M"],
        ["RTT samples (-SYN)", format_count(samples_minus), "7.21M"],
        ["samples foregone", format_count(foregone), "0.32M"],
        ["samples foregone (%)", f"{foregone_pct:.1f}%", "4.2%"],
    ]
    report = render_table(
        ["quantity", "measured", "paper"],
        rows,
        title="Figure 10: skipping handshake packets — RT memory saved "
              "vs RTT samples foregone",
    )
    report_sink(report)
    assert 0.60 <= incomplete / total <= 0.85
    assert foregone_pct < 12.0

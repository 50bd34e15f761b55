"""Ablation: correctness — Dart vs the §2.1 strawman vs Dapper.

Both given unlimited memory, so the differences are purely the
correctness machinery (§2.2): the strawman happily matches ACKs against
retransmitted/reordered data and emits ambiguous samples Dart rejects;
Dapper arms only one measurement per flow and undersamples.
"""

from repro.analysis import percentile, render_table
from repro.baselines import DapperMonitor, Strawman, tcptrace_const
from repro.engine import MonitorEngine


def run_monitors(campus_trace, external_leg):
    dart = tcptrace_const(leg_filter=external_leg())
    strawman = Strawman(leg_filter=external_leg())
    dapper = DapperMonitor(leg_filter=external_leg())
    engine = MonitorEngine()
    for monitor in (dart, strawman, dapper):
        engine.add_monitor(monitor)
    engine.run(campus_trace.records)
    return dart, strawman, dapper


def test_ablation_strawman_vs_dart(benchmark, campus_trace, external_leg,
                                   report_sink):
    dart, strawman, dapper = benchmark.pedantic(
        run_monitors, args=(campus_trace, external_leg),
        rounds=1, iterations=1,
    )
    rows = []
    for name, monitor in (("Dart (unlimited)", dart),
                          ("strawman (unlimited)", strawman),
                          ("Dapper-style", dapper)):
        rtts = [s.rtt_ms for s in monitor.samples]
        rows.append([
            name,
            len(rtts),
            percentile(rtts, 50),
            percentile(rtts, 95),
            percentile(rtts, 99),
        ])
    ambiguous = strawman.stats.samples - dart.stats.samples
    report = "\n".join([
        render_table(
            ["monitor", "samples", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
            rows,
            title="Ablation: sample counts and distributions "
                  "(strawman's extras are ambiguity-tainted; Dapper "
                  "undersamples)",
        ),
        "",
        f"strawman samples not validated by range tracking: {ambiguous} "
        f"({100 * ambiguous / max(strawman.stats.samples, 1):.1f}% of its "
        f"output)",
    ])
    report_sink(report)
    assert strawman.stats.samples >= dart.stats.samples
    assert dapper.stats.samples < dart.stats.samples

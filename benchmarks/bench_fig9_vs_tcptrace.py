"""Figure 9: Dart (unlimited memory) vs tcptrace.

Replays the campus trace, external leg only, through four monitors —
tcptrace(+SYN), tcptrace(-SYN), Dart(+SYN), Dart(-SYN) — all with
unlimited fully-associative memory, and prints:

* 9a: RTT sample counts (paper: Dart collects >82% of tcptrace's);
* 9b: the CDF of RTTs up to 125 ms (medians 13-15 ms, p95 skew);
* 9c: the CCDF tail above 100 ms (distributions converge; 100 s+
  keep-alive stragglers appear in both tools).
"""

from repro.analysis import (
    fraction_between,
    percentile,
    render_cdf,
    render_table,
)
from repro.baselines import TcpTrace
from repro.core import Dart, ideal_config
from repro.engine import MonitorEngine

MS = 1_000_000


def run_four_monitors(campus_trace, external_leg):
    monitors = {
        "tcptrace(+SYN)": TcpTrace(track_handshake=True,
                                   leg_filter=external_leg()),
        "tcptrace(-SYN)": TcpTrace(track_handshake=False,
                                   leg_filter=external_leg()),
        "Dart(+SYN)": Dart(ideal_config(track_handshake=True),
                           leg_filter=external_leg()),
        "Dart(-SYN)": Dart(ideal_config(track_handshake=False),
                           leg_filter=external_leg()),
    }
    engine = MonitorEngine()
    for name, monitor in monitors.items():
        engine.add_monitor(monitor, name=name)
    engine.run(campus_trace.records)
    return {name: [s.rtt_ms for s in monitor.samples]
            for name, monitor in monitors.items()}


def test_fig9_dart_vs_tcptrace(benchmark, campus_trace, external_leg,
                               report_sink):
    rtts = benchmark.pedantic(run_four_monitors,
                              args=(campus_trace, external_leg),
                              rounds=1, iterations=1)
    counts = {name: len(values) for name, values in rtts.items()}
    ratio_syn = 100 * counts["Dart(+SYN)"] / counts["tcptrace(+SYN)"]
    ratio_nosyn = 100 * counts["Dart(-SYN)"] / counts["tcptrace(-SYN)"]
    count_rows = [
        [name, counts[name]] for name in rtts
    ] + [
        ["Dart/tcptrace (+SYN)", f"{ratio_syn:.1f}% (paper: 82.5%)"],
        ["Dart/tcptrace (-SYN)", f"{ratio_nosyn:.1f}% (paper: 83.3%)"],
    ]
    pct_rows = []
    for name, values in rtts.items():
        pct_rows.append([
            name,
            percentile(values, 50),
            percentile(values, 95),
            percentile(values, 99),
            max(values),
        ])
    body_fraction = 100 * fraction_between(rtts["Dart(-SYN)"], 10, 100)
    lines = [
        render_table(["monitor", "RTT samples"], count_rows,
                     title="Figure 9a: RTT sample counts"),
        "",
        render_cdf(rtts, points=[5, 10, 13, 15, 25, 39, 57, 62, 100, 125],
                   title="Figure 9b: CDF of RTTs (P[RTT < x] %)"),
        "",
        render_table(
            ["monitor", "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)"],
            pct_rows,
            title="Figure 9b/9c: percentiles (paper: medians 13-15, "
                  "p95 39-62, p99 ~215, tail to 100 s)",
        ),
        "",
        f"fraction of Dart(-SYN) samples in [10 ms, 100 ms]: "
        f"{body_fraction:.1f}% (paper: 96.3%)",
    ]
    report_sink("\n".join(lines))
    assert 0.70 <= ratio_syn / 100 <= 1.0
    assert 0.70 <= ratio_nosyn / 100 <= 1.0

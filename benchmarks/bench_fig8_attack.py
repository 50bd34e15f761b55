"""Figure 8 (and §5.2): interception-attack detection timeline.

Simulates the PEERING interception scenario (wide-area RTT steps from
~25 ms to ~120 ms at t = 36 s), runs Dart live on the monitored stream
feeding the windowed-min change detector, and prints the timeline plus
the headline numbers the paper reports: attack suspected almost
immediately, confirmed within 63 packets / 2.58 seconds.
"""

from repro.analysis import render_series, render_table
from repro.core import Dart, LegFilter, ideal_config
from repro.detection import InterceptionDetector, packets_between
from repro.traces import generate_attack_trace

SEC = 1_000_000_000


def run_attack_detection():
    trace = generate_attack_trace()
    detector = InterceptionDetector()
    dart = Dart(
        ideal_config(),
        leg_filter=LegFilter(trace.internal, legs=("external",)),
    )
    raw = []
    for record in trace.records:
        for sample in dart.process(record):
            raw.append((sample.timestamp_ns / SEC, sample.rtt_ms))
            detector.add(sample)
    return trace, detector, raw


def test_fig8_attack_detection(benchmark, report_sink):
    trace, detector, raw = benchmark.pedantic(run_attack_detection,
                                              rounds=1, iterations=1)
    attack_at = trace.config.attack_at_ns
    confirmed = detector.confirmed_at_ns
    suspected = detector.suspected_at_ns
    packets = packets_between(trace.records, attack_at, confirmed)
    minima = [(w.closed_at_ns / SEC, w.min_rtt_ns / 1e6)
              for w in detector.windows]
    lines = [
        render_series(raw, title="Figure 8: raw RTT samples over time",
                      x_label="time (s)", y_label="RTT (ms)"),
        "",
        render_series(minima,
                      title="Figure 8: min RTT per window of 8 samples",
                      x_label="time (s)", y_label="min RTT (ms)"),
        "",
        render_table(
            ["event", "time (s)"],
            [
                ["attack takes effect", attack_at / SEC],
                ["attack suspected", suspected / SEC],
                ["attack confirmed", confirmed / SEC],
            ],
            float_format="{:.2f}",
        ),
        "",
        f"packets exchanged between attack and confirmation: {packets} "
        f"(paper: 63)",
        f"seconds between attack and confirmation: "
        f"{(confirmed - attack_at) / SEC:.2f} (paper: 2.58)",
        f"baseline min RTT: {detector.baseline_ns / 1e6:.1f} ms "
        f"(paper: ~25 ms pre-attack, ~120 ms post)",
    ]
    report_sink("\n".join(lines))
    assert confirmed is not None and confirmed > attack_at
    assert packets < 200
    assert (confirmed - attack_at) / SEC < 5.0

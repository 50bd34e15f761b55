"""Ablation: the §7 shadow-RT approximation (memory for recirculation).

The paper sketches placing a *copy* of the Range Tracker after the
Packet Tracker so evicted records can be staleness-checked at the end of
the pipeline: stale records die without recirculating, at the cost of a
second RT's memory and occasional mistakes when the copy lags the
original.  This bench quantifies that trade at a contended PT size:
recirculation bandwidth saved, samples lost to false discards, and
wasted recirculations from false keeps — at several lag depths.
"""

from _sweeps import LARGE_RT, baseline_rtts

from repro.analysis import evaluate_dart, render_table
from repro.core import Dart, DartConfig

PT_SLOTS = 1 << 8
LAGS = [0, 4, 16, 64]


def run_variants(campus_trace, external_leg):
    reference = baseline_rtts(campus_trace, external_leg)
    rows = []
    base = Dart(DartConfig(rt_slots=LARGE_RT, pt_slots=PT_SLOTS,
                           max_recirculations=2),
                leg_filter=external_leg())
    base.process_batch(campus_trace.records)
    base.finalize()
    base_perf = evaluate_dart(
        reference, [s.rtt_ns for s in base.samples],
        recirculations=base.stats.recirculations,
        packets_processed=base.stats.packets_processed,
    )
    rows.append(["recirculate (paper §3.2)", base_perf.fraction_collected,
                 base_perf.recirculations_per_packet, 0, 0, 0])
    for lag in LAGS:
        dart = Dart(
            DartConfig(rt_slots=LARGE_RT, pt_slots=PT_SLOTS,
                       max_recirculations=2, shadow_rt=True,
                       shadow_rt_lag_packets=lag),
            leg_filter=external_leg(),
        )
        dart.process_batch(campus_trace.records)
        dart.finalize()
        perf = evaluate_dart(
            reference, [s.rtt_ns for s in dart.samples],
            recirculations=dart.stats.recirculations,
            packets_processed=dart.stats.packets_processed,
        )
        rows.append([
            f"shadow RT (lag {lag} pkts)",
            perf.fraction_collected,
            perf.recirculations_per_packet,
            dart.stats.shadow_discards,
            dart.stats.shadow_false_discards,
            dart.stats.shadow_false_keeps,
        ])
    return rows


def test_ablation_shadow_rt(benchmark, campus_trace, external_leg,
                            report_sink):
    rows = benchmark.pedantic(run_variants,
                              args=(campus_trace, external_leg),
                              rounds=1, iterations=1)
    report = render_table(
        ["validity check", "fraction (%)", "recirc/pkt",
         "shadow discards", "false discards", "false keeps"],
        rows,
        title=f"Ablation (§7): shadow-RT validity check at {PT_SLOTS} "
              "PT slots — recirculation saved vs consistency mistakes",
        float_format="{:.3f}",
    )
    report_sink(report)
    base_recirc = rows[0][2]
    shadow_synced = rows[1]
    # With a synchronized copy, recirculations drop and accuracy holds.
    assert shadow_synced[2] < base_recirc
    assert shadow_synced[1] > rows[0][1] - 3.0
    # A badly lagging copy loses samples to false discards.
    assert rows[-1][4] > 0

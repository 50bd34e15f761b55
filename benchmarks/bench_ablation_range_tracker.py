"""Ablation: what the Range Tracker buys (§3.1).

Runs Dart with range tracking against a variant whose RT admits
everything (modelled by the unlimited strawman with Dart's PT matching,
i.e. no validity checks) on an *impairment-heavy* trace, and reports how
many ambiguity events the RT rejected and how they would have skewed the
RTT distribution.

Also reports the congestion telemetry the paper suggests (§3.1): range
collapse counts as an indicator of loss/reordering on the path.
"""

from repro.analysis import percentile, render_table
from repro.baselines import Strawman, tcptrace_const
from repro.core.range_tracker import SeqVerdict
from repro.core import make_leg_filter
from repro.engine import MonitorEngine
from repro.traces import (
    CampusTraceConfig,
    CampusWorkload,
    PathImpairmentModel,
    generate_campus_trace,
)


def run_heavy_impairment():
    workload = CampusWorkload(
        impairments=PathImpairmentModel(
            lossy_fraction=0.9,
            loss_range=(0.01, 0.04),
            reordering_fraction=0.9,
            reorder_range=(0.01, 0.05),
        )
    )
    trace = generate_campus_trace(
        CampusTraceConfig(connections=900, seed=55, workload=workload)
    )
    leg = lambda: make_leg_filter(trace.internal.is_internal,
                                  legs=("external",))
    dart = tcptrace_const(leg_filter=leg())
    no_rt = Strawman(leg_filter=leg())
    engine = MonitorEngine()
    engine.add_monitor(dart, name="dart")
    engine.add_monitor(no_rt, name="no_rt")
    engine.run(trace.records)
    return trace, dart, no_rt


def test_ablation_range_tracking_under_congestion(benchmark, report_sink):
    trace, dart, no_rt = benchmark.pedantic(run_heavy_impairment,
                                            rounds=1, iterations=1)
    verdicts = dart.stats.seq_verdicts
    rt_stats = dart.range_tracker.stats
    dart_rtts = [s.rtt_ms for s in dart.samples]
    raw_rtts = [s.rtt_ms for s in no_rt.samples]
    rows = [
        ["data packets rejected as retransmissions",
         verdicts.get(SeqVerdict.RETRANSMISSION, 0)],
        ["data packets re-anchored after holes",
         verdicts.get(SeqVerdict.TRACK_AFTER_HOLE, 0)],
        ["duplicate-ACK collapses", rt_stats.duplicate_ack_collapses],
        ["total range collapses (congestion signal)",
         rt_stats.total_collapses],
        ["Dart samples", len(dart_rtts)],
        ["no-validation samples", len(raw_rtts)],
        ["Dart p99 (ms)", round(percentile(dart_rtts, 99), 1)],
        ["no-validation p99 (ms)", round(percentile(raw_rtts, 99), 1)],
    ]
    report = render_table(
        ["quantity", "value"],
        rows,
        title="Ablation: Range Tracker under heavy loss/reordering "
              f"({trace.packets} packets)",
    )
    report_sink(report)
    assert rt_stats.total_collapses > 0
    # Without validation the tail is inflated by ambiguous matches.
    assert percentile(raw_rtts, 99) >= percentile(dart_rtts, 99)


def test_ablation_collapse_telemetry_scales_with_impairment(benchmark,
                                                            report_sink):
    def run():
        results = []
        for label, loss in (("clean", 0.0), ("lossy", 0.03)):
            workload = CampusWorkload(
                impairments=PathImpairmentModel(
                    lossy_fraction=1.0 if loss else 0.0,
                    loss_range=(loss, loss + 1e-9) if loss else (0.0, 1e-9),
                    reordering_fraction=0.0,
                    reorder_range=(0.0, 1e-9),
                )
            )
            trace = generate_campus_trace(
                CampusTraceConfig(connections=250, seed=77,
                                  workload=workload)
            )
            dart = tcptrace_const()
            dart.process_batch(trace.records)
            dart.finalize()
            results.append((label, dart.range_tracker.stats.total_collapses,
                            trace.packets))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report = render_table(
        ["trace", "range collapses", "packets"],
        results,
        title="Ablation: collapse frequency as a congestion indicator",
    )
    report_sink(report)
    (_, clean_collapses, _), (_, lossy_collapses, _) = results
    assert lossy_collapses > clean_collapses

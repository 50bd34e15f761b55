"""Shared machinery for the §6.2 table-configuration sweeps (Figs 11-13).

Each sweep point runs constrained Dart over the campus trace (external
leg) and evaluates it against ``tcptrace_const`` — Dart with unlimited
fully-associative memory — using the paper's three metrics: RTT
collection error at p50/p95/p99 (plus the worst case over p in [5, 95]),
fraction of RTT samples collected, and recirculations per packet.

Scale note: the bench trace is ~1/800 of the paper's, so PT sizes are
swept over a correspondingly lower range; the *shape* of each curve (and
where it saturates relative to the trace's concurrency) is the
reproduction target.  EXPERIMENTS.md maps our sweep axis to the paper's.
"""

from __future__ import annotations

from typing import List

from repro.analysis import DartPerformance, evaluate_dart, render_table
from repro.baselines import tcptrace_const
from repro.core import Dart, DartConfig

#: A Range Tracker comfortably larger than the trace's flow count,
#: mirroring the paper's "large enough" 2**20 RT.
LARGE_RT = 1 << 18


def baseline_rtts(campus_trace, external_leg) -> List[int]:
    """The tcptrace_const reference sample set (computed once)."""
    baseline = tcptrace_const(leg_filter=external_leg())
    baseline.process_batch(campus_trace.records)
    baseline.finalize()
    return [s.rtt_ns for s in baseline.samples]


def run_config(campus_trace, external_leg, config: DartConfig,
               reference: List[int]) -> DartPerformance:
    """One sweep point: replay, then compute the paper's metric bundle."""
    dart = Dart(config, leg_filter=external_leg())
    dart.process_batch(campus_trace.records)
    dart.finalize()
    return evaluate_dart(
        reference,
        [s.rtt_ns for s in dart.samples],
        recirculations=dart.stats.recirculations,
        packets_processed=dart.stats.packets_processed,
    )


def sweep_table(title: str, axis_name: str, points, performances) -> str:
    """Render one sweep as the paper's three-panel data in table form."""
    rows = []
    for point, perf in zip(points, performances):
        rows.append([
            point,
            perf.error_p50,
            perf.error_p95,
            perf.error_p99,
            perf.error_worst_5_95,
            perf.fraction_collected,
            perf.recirculations_per_packet,
        ])
    return render_table(
        [axis_name, "err p50 (%)", "err p95 (%)", "err p99 (%)",
         "worst [5,95] (%)", "fraction (%)", "recirc/pkt"],
        rows,
        title=title,
        float_format="{:.3f}",
    )

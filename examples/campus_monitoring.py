#!/usr/bin/env python3
"""Campus-style deployment: per-prefix min-RTT monitoring on both legs.

Generates a synthetic campus trace (wired + wireless subnets talking to
Internet servers through one monitored gateway), then runs a
hardware-shaped Dart instance — finite one-way-associative tables, one
recirculation — with /24-prefix min-filter analytics, the configuration
an operator watching for per-destination congestion would deploy
(paper §3.1/§3.3).

Prints:
  * the external-leg minimum RTT per destination /24 (propagation delay
    to each server prefix);
  * the wired vs wireless internal-leg picture (paper Fig 6);
  * Dart's resource/overhead counters for this configuration.

Run:  python examples/campus_monitoring.py
"""

from collections import defaultdict

from repro.analysis import fraction_below, percentile, render_table
from repro.core import Dart, DartConfig, LegFilter, PrefixMinAnalytics
from repro.engine import MonitorEngine
from repro.net.inet import format_prefix
from repro.traces import CampusTraceConfig, generate_campus_trace
from repro.traces.campus import WIRED_NET, WIRELESS_NET


def main() -> None:
    print("generating campus trace...")
    trace = generate_campus_trace(CampusTraceConfig(connections=1200, seed=4))
    print(f"  {trace.packets} packets, {trace.complete_connections} complete "
          f"/ {trace.incomplete_connections} incomplete connections")

    # -- external leg with per-/24 min filtering --------------------------
    analytics = PrefixMinAnalytics(prefix_len=24, window_samples=32)
    dart = Dart(
        DartConfig(rt_slots=1 << 16, pt_slots=1 << 12,
                   max_recirculations=1, analytics_purge=True),
        analytics=analytics,
        leg_filter=LegFilter(trace.internal, legs=("external",)),
    )
    engine = MonitorEngine()
    engine.add_monitor(dart)
    report = engine.run(trace.records)
    print(f"  replayed at {report.records_per_second:,.0f} packets/s "
          f"(simulated monitor)")

    best = defaultdict(lambda: float("inf"))
    counts = defaultdict(int)
    for window in analytics.history:
        best[window.key] = min(best[window.key], window.min_rtt_ns / 1e6)
        counts[window.key] += window.sample_count
    top = sorted(best.items(), key=lambda kv: -counts[kv[0]])[:10]
    rows = [[format_prefix(prefix, 24), f"{rtt:.2f}", counts[prefix]]
            for prefix, rtt in top]
    print()
    print(render_table(
        ["destination prefix", "min RTT (ms)", "samples"],
        rows,
        title="External leg: propagation delay per destination /24 "
              "(busiest ten)",
    ))

    # -- internal leg: wired vs wireless (Fig 6) ---------------------------
    internal = Dart(
        DartConfig(rt_slots=1 << 16, pt_slots=1 << 12),
        leg_filter=LegFilter(trace.internal, legs=("internal",)),
    )
    internal.process_batch(trace.records)
    internal.finalize()
    wired, wireless = [], []
    for sample in internal.samples:
        subnet = sample.flow.dst_ip >> 16
        if subnet == WIRED_NET >> 16:
            wired.append(sample.rtt_ms)
        elif subnet == WIRELESS_NET >> 16:
            wireless.append(sample.rtt_ms)
    print()
    print("Internal leg (campus infrastructure latency, paper Fig 6):")
    for name, rtts in (("wired", wired), ("wireless", wireless)):
        if not rtts:
            continue
        print(f"  {name:9s} samples={len(rtts):6d}  "
              f"P[<1ms]={100 * fraction_below(rtts, 1.0):5.1f}%  "
              f"median={percentile(rtts, 50):6.2f} ms  "
              f"p90={percentile(rtts, 90):6.2f} ms")

    # -- overhead counters --------------------------------------------------
    stats = dart.stats
    print()
    print("Dart overhead (hardware-shaped configuration):")
    print(f"  samples collected       : {stats.samples}")
    print(f"  recirculations per pkt  : "
          f"{stats.recirculations_per_packet():.4f}")
    print(f"  stale records purged    : {stats.stale_self_destructs}")
    print(f"  analytics purges (§3.3) : {stats.analytics_purges}")
    rt_occ, pt_occ = dart.occupancy()
    print(f"  final occupancy         : RT {rt_occ} slots, PT {pt_occ} slots")


if __name__ == "__main__":
    main()

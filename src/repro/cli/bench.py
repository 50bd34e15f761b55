"""``dart-bench``: quick table-configuration sweeps from the command line.

A lightweight version of the §6.2 benchmark harness: generates a
synthetic campus trace and sweeps one knob (PT size, stage count, or the
recirculation budget), printing the paper's three metrics per point.
``--monitor`` appends reference rows for other registered monitors, all
evaluated in one shared engine pass over the same trace.

Examples::

    dart-bench --sweep pt-size --connections 1500
    dart-bench --sweep stages --monitor strawman --monitor dapper
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..analysis import evaluate_dart, render_table
from ..baselines import tcptrace_const
from ..core import DartConfig, LegFilter
from ..engine import MonitorEngine, MonitorOptions, create
from ..obs import add_telemetry_arguments, emitter_from_args
from ..traces import CampusTraceConfig, generate_campus_trace
from .distargs import (
    add_distribution_arguments,
    distribution_factory_from_args,
    distribution_rows,
    monitor_distribution,
)
from .shared import add_shard_arguments, build_monitor, tcp_monitors

LARGE_RT = 1 << 18


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dart-bench",
        description="Sweep one Dart table knob over a synthetic trace.",
    )
    parser.add_argument("--sweep", choices=["pt-size", "stages", "recirc"],
                        default="pt-size")
    parser.add_argument(
        "--monitor", action="append", dest="monitors", metavar="NAME",
        choices=tcp_monitors(),
        help="also evaluate these monitors on the same trace as reference "
             "rows (repeatable; they run side-by-side in one engine pass)",
    )
    parser.add_argument("--connections", type=int, default=1000,
                        help="synthetic trace size (default 1000)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pt-slots", type=int, default=1 << 10,
                        help="fixed PT size for stages/recirc sweeps")
    add_shard_arguments(parser)
    add_distribution_arguments(parser)
    add_telemetry_arguments(parser)
    return parser


def sweep_points(args):
    if args.sweep == "pt-size":
        return [
            (f"2^{n}", DartConfig(rt_slots=LARGE_RT, pt_slots=1 << n,
                                  max_recirculations=1))
            for n in range(6, 15)
        ]
    if args.sweep == "stages":
        return [
            (str(k), DartConfig(rt_slots=LARGE_RT, pt_slots=args.pt_slots,
                                pt_stages=k, max_recirculations=1))
            for k in range(1, 9)
        ]
    return [
        (str(r), DartConfig(rt_slots=LARGE_RT, pt_slots=args.pt_slots,
                            pt_stages=8, max_recirculations=r))
        for r in range(1, 9)
    ]


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    print(f"generating campus trace ({args.connections} connections, "
          f"seed {args.seed})...", file=sys.stderr)
    trace = generate_campus_trace(
        CampusTraceConfig(connections=args.connections, seed=args.seed)
    )

    def leg():
        return LegFilter(trace.internal, legs=("external",))

    baseline = tcptrace_const(leg_filter=leg())
    oracle_pass = MonitorEngine()
    oracle_pass.add_monitor(baseline, name="tcptrace-const")
    oracle_pass.run(trace.records)
    reference = [s.rtt_ns for s in baseline.samples]
    print(f"trace: {trace.packets} packets; baseline samples: "
          f"{len(reference)}", file=sys.stderr)

    from ..core.analytics import CollectAllAnalytics

    # evaluate_dart reads per-sample RTTs, so the distribution stage
    # wraps a CollectAll inner (same arrangement as dart-replay).
    dist_factory = distribution_factory_from_args(
        args, inner_factory=CollectAllAnalytics
    )

    extra = list(dict.fromkeys(args.monitors or ()))
    emitter = emitter_from_args(args)
    points = [
        (label, build_monitor("dart", args, MonitorOptions(
            config=config, leg_filter=leg(), analytics_factory=dist_factory
        )))
        for label, config in sweep_points(args)
    ]
    options = MonitorOptions(leg_filter=leg())
    reference_monitors = [(name, create(name, options)) for name in extra]
    from ..stream import GracefulShutdown

    # One trace pass: every sweep point and reference monitor rides the
    # same engine, so an emitter sees the whole run (per-monitor chunk
    # timings included).
    engine = MonitorEngine(telemetry=emitter)
    for label, dart in points:
        engine.add_monitor(dart, name=f"sweep-{label}")
    for name, monitor in reference_monitors:
        engine.add_monitor(monitor, name=name)
    with GracefulShutdown() as stop:
        # SIGTERM/SIGINT stops the pass at the next record; what has
        # been measured so far still finalizes and prints.
        engine.run(stop.wrap(trace.records))
    if stop.triggered:
        print("dart-bench: interrupted — reporting what completed",
              file=sys.stderr)

    rows = []
    for label, monitor in points + [
        (f"[{name}]", monitor) for name, monitor in reference_monitors
    ]:
        stats = monitor.stats
        perf = evaluate_dart(
            reference,
            [s.rtt_ns for s in monitor.samples],
            recirculations=getattr(stats, "recirculations", 0),
            packets_processed=stats.packets_processed,
        )
        rows.append([
            label, perf.error_p50, perf.error_p95, perf.error_p99,
            perf.error_worst_5_95, perf.fraction_collected,
            perf.recirculations_per_packet,
        ])
    print(render_table(
        [args.sweep, "err p50 (%)", "err p95 (%)", "err p99 (%)",
         "worst [5,95] (%)", "fraction (%)", "recirc/pkt"],
        rows,
        title=(f"dart-bench sweep: {args.sweep}"
               + (f" ({args.shards} shards, {args.parallel})"
                  if args.shards > 1 else "")),
        float_format="{:.3f}",
    ))
    if dist_factory is not None and points:
        # One distribution table per sweep — each point carries its own
        # histogram/sketch stage over the identical trace.
        print()
        for label, dart in points:
            distribution = monitor_distribution(dart)
            if distribution is None:
                continue
            print(render_table(
                ["quantity", "value"], distribution_rows(distribution),
                title=f"distribution @ {args.sweep}={label}",
            ))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``dart-replay``: analyze a capture file from the command line.

Runs one or more registered RTT monitors over a pcap/pcapng in a single
trace pass through :class:`repro.engine.MonitorEngine`.  Examples::

    dart-replay capture.pcap --internal 10.0.0.0/8 --leg external \\
        --pt-slots 4096 --recirc 2

    dart-replay capture.pcap --monitor dart --monitor tcptrace

    dart-replay quic.pcap --monitor spinbit --internal 10.0.0.0/8

Prints a summary (sample count, percentiles, overhead counters) or, with
``--dump``, one line per RTT sample.  With several ``--monitor`` flags a
side-by-side comparison table follows the primary monitor's summary.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..analysis import percentile, render_table
from ..engine import MonitorEngine, available, get_spec
from ..obs import add_telemetry_arguments, emitter_from_args
from .distargs import (
    add_distribution_arguments,
    distribution_factory_from_args,
    distribution_rows,
    monitor_distribution,
)
from .shared import (
    add_export_arguments,
    add_leg_arguments,
    add_shard_arguments,
    add_table_arguments,
    build_monitor,
    export_sinks,
    monitor_options,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dart-replay",
        description="Replay a capture through RTT monitors and report "
                    "samples.",
    )
    parser.add_argument("pcap", help="capture file to analyze")
    parser.add_argument(
        "--monitor", action="append", dest="monitors", metavar="NAME",
        choices=available(),
        help="monitor(s) to run in one trace pass (repeatable; default: "
             f"dart; choices: {', '.join(available())})",
    )
    add_leg_arguments(parser)
    add_table_arguments(parser)
    add_shard_arguments(parser)
    parser.add_argument("--dump", action="store_true",
                        help="print one line per RTT sample")
    add_export_arguments(parser)
    parser.add_argument("--flows", type=int, metavar="N", default=0,
                        help="print per-flow summaries for the N busiest "
                             "flows")
    add_distribution_arguments(parser)
    add_telemetry_arguments(parser)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        raise SystemExit("--shards must be positive")
    monitors = list(dict.fromkeys(args.monitors or ["dart"]))
    kinds = {get_spec(name).record_kind for name in monitors}
    if len(kinds) > 1:
        raise SystemExit(
            "cannot mix TCP monitors with spinbit in one replay: a capture "
            "decodes as either TCP segments or QUIC datagrams"
        )
    kind = kinds.pop()
    if kind == "quic" and args.shards > 1:
        raise SystemExit("--shards applies to TCP monitors only")

    from ..core.analytics import CollectAllAnalytics
    from ..export import FlowSummarySink
    from ..stream import SINK_KINDS, GracefulShutdown

    # The distribution stage wraps a CollectAll inner so the summary's
    # per-sample reads (`monitor.samples`) keep working.
    options = monitor_options(
        args,
        analytics_factory=distribution_factory_from_args(
            args, inner_factory=CollectAllAnalytics
        ),
    )
    extra_sinks = export_sinks(args, lambda kind, path: SINK_KINDS[kind](path))
    summaries = FlowSummarySink() if args.flows else None
    if summaries is not None:
        extra_sinks.append(summaries)

    engine = MonitorEngine(telemetry=emitter_from_args(args))
    for index, name in enumerate(monitors):
        engine.add_monitor(
            build_monitor(name, args, options),
            name=name,
            # Export sinks carry one stream: the primary monitor's.
            sinks=extra_sinks if index == 0 else (),
            record_kind=kind,
        )

    with GracefulShutdown() as stop:
        # A SIGTERM/SIGINT stops ingest at the next record; the engine
        # then finalizes and flushes sinks normally, so an interrupted
        # replay still exits 0 with complete partial results.
        if kind == "quic":
            from ..quic import read_quic_capture

            report = engine.run(stop.wrap(read_quic_capture(args.pcap)))
        else:
            from ..net.pcapng import read_any_frames

            report = engine.run_frames(stop.wrap(read_any_frames(args.pcap)))
    if stop.triggered:
        print("dart-replay: interrupted — finalized and flushed after "
              f"{report.records} records", file=sys.stderr)
    primary = engine[monitors[0]].monitor
    samples = primary.samples

    if args.dump:
        for sample in samples:
            leg = sample.leg or "-"
            print(f"{sample.timestamp_ns / 1e9:.6f} "
                  f"{sample.flow.describe()} rtt_ms={sample.rtt_ms:.3f} "
                  f"leg={leg}{' handshake' if sample.handshake else ''}")
        return 0

    rtts = [s.rtt_ms for s in samples]
    stats = primary.stats
    rows = [
        ["packets replayed", report.records],
        ["replay rate (pkts/s)", f"{report.records_per_second:,.0f}"],
        ["RTT samples", len(rtts)],
    ]
    if args.shards > 1:
        rows.append(["shards", f"{args.shards} ({args.parallel})"])
    if rtts:
        rows += [
            ["median RTT (ms)", f"{percentile(rtts, 50):.3f}"],
            ["p95 RTT (ms)", f"{percentile(rtts, 95):.3f}"],
            ["p99 RTT (ms)", f"{percentile(rtts, 99):.3f}"],
            ["max RTT (ms)", f"{max(rtts):.3f}"],
        ]
    recirc = getattr(stats, "recirculations_per_packet", None)
    if callable(recirc):
        rows.append(["recirculations/pkt", f"{recirc():.4f}"])
    range_collapses = getattr(primary, "range_collapses", None)
    if callable(range_collapses):
        rows.append(["range collapses", range_collapses()])
    elif getattr(primary, "range_tracker", None) is not None:
        rows.append(
            ["range collapses", primary.range_tracker.stats.total_collapses]
        )
    ignored_syn = getattr(stats, "ignored_syn", None)
    if ignored_syn is not None:
        rows.append(["SYNs ignored", ignored_syn])
    distribution = monitor_distribution(primary)
    if distribution is not None:
        rows += distribution_rows(distribution)
    title = "dart-replay" if len(monitors) == 1 else (
        f"dart-replay ({monitors[0]})"
    )
    print(render_table(["quantity", "value"], rows, title=title))
    if len(monitors) > 1:
        comparison = []
        for run in engine.runs:
            run_rtts = [s.rtt_ms for s in run.monitor.samples]
            comparison.append([
                run.name,
                len(run_rtts),
                f"{percentile(run_rtts, 50):.3f}" if run_rtts else "-",
                f"{percentile(run_rtts, 95):.3f}" if run_rtts else "-",
                f"{percentile(run_rtts, 99):.3f}" if run_rtts else "-",
            ])
        print()
        print(render_table(
            ["monitor", "samples", "median (ms)", "p95 (ms)", "p99 (ms)"],
            comparison,
            title="monitor comparison (one trace pass)",
        ))
    if summaries is not None:
        print()
        print(f"busiest {args.flows} flows:")
        for summary in summaries.top_by_samples(args.flows):
            print("  " + summary.describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())

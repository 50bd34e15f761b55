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
from ..core import DartConfig, make_leg_filter
from ..engine import MonitorEngine, MonitorOptions, available, create, get_spec
from ..net.inet import ipv4_to_int, prefix_of
from ..obs import add_telemetry_arguments, emitter_from_args
from .distargs import (
    add_distribution_arguments,
    distribution_factory_from_args,
    distribution_rows,
    monitor_distribution,
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
    parser.add_argument(
        "--internal", metavar="PREFIX",
        help="internal network as a.b.c.d/len; enables leg separation "
             "(TCP monitors) and orients the spin-bit observer (spinbit)",
    )
    parser.add_argument(
        "--leg", choices=["external", "internal", "both"], default="both",
        help="which leg(s) to measure (requires --internal)",
    )
    parser.add_argument("--rt-slots", type=int, default=None,
                        help="Range Tracker slots (default: unlimited)")
    parser.add_argument("--pt-slots", type=int, default=None,
                        help="Packet Tracker slots (default: unlimited)")
    parser.add_argument("--stages", type=int, default=1,
                        help="PT stage count (default 1)")
    parser.add_argument("--recirc", type=int, default=1,
                        help="max recirculations per record (default 1)")
    parser.add_argument("--handshake", action="store_true",
                        help="track SYN/SYN-ACK packets (+SYN mode)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="flow-shard each TCP monitor across N parallel "
                             "instances (default 1 = serial)")
    parser.add_argument("--parallel", choices=["process", "thread", "serial"],
                        default="process",
                        help="execution mode for --shards > 1 "
                             "(default: process)")
    parser.add_argument("--transport", choices=["shm", "queue"],
                        default="shm",
                        help="process-mode byte transport: shared-memory "
                             "ring or mp.Queue fallback (default: shm)")
    parser.add_argument("--dump", action="store_true",
                        help="print one line per RTT sample")
    parser.add_argument("--csv", metavar="PATH",
                        help="also stream samples to a CSV file")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="also stream samples to a JSONL file")
    parser.add_argument("--reports", metavar="PATH",
                        help="also stream binary report records (the "
                             "switch-to-collector format)")
    parser.add_argument("--flows", type=int, metavar="N", default=0,
                        help="print per-flow summaries for the N busiest "
                             "flows")
    add_distribution_arguments(parser)
    add_telemetry_arguments(parser)
    return parser


def parse_prefix(text: str):
    network_text, _, length_text = text.partition("/")
    network = ipv4_to_int(network_text)
    length = int(length_text) if length_text else 32
    return prefix_of(network, length), length


def build_leg_filter(args):
    if args.internal:
        network, length = parse_prefix(args.internal)
        legs = (("external", "internal") if args.leg == "both"
                else (args.leg,))
        return make_leg_filter(
            lambda addr: prefix_of(addr, length) == network, legs=legs
        )
    if args.leg != "both":
        raise SystemExit("--leg requires --internal to orient the path")
    return None


def build_options(args) -> MonitorOptions:
    """One options bundle configuring every selected monitor."""
    is_client = None
    if args.internal:
        network, length = parse_prefix(args.internal)

        def is_client(addr: int) -> bool:
            return prefix_of(addr, length) == network

    from ..core.analytics import CollectAllAnalytics

    return MonitorOptions(
        config=DartConfig(
            rt_slots=args.rt_slots,
            pt_slots=args.pt_slots,
            pt_stages=args.stages,
            max_recirculations=args.recirc,
            track_handshake=args.handshake,
        ),
        leg_filter=build_leg_filter(args),
        track_handshake=args.handshake,
        is_client=is_client,
        # The distribution stage wraps a CollectAll inner so the replay
        # summary's per-sample reads (`monitor.samples`) keep working.
        analytics_factory=distribution_factory_from_args(
            args, inner_factory=CollectAllAnalytics
        ),
    )


def build_monitor(name: str, args, options: MonitorOptions):
    """One serial monitor, or a flow-sharded cluster of them."""
    if args.shards > 1:
        from ..cluster import ShardedMonitor
        from ..engine import monitor_factory

        return ShardedMonitor(
            shards=args.shards,
            parallel=args.parallel,
            transport=args.transport,
            monitor_factory=monitor_factory(name, options),
        )
    return create(name, options)


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
    options = build_options(args)

    from ..export import CsvSink, FlowSummarySink, JsonlSink, ReportFileSink

    extra_sinks = []
    if args.csv:
        extra_sinks.append(CsvSink(args.csv))
    if args.jsonl:
        extra_sinks.append(JsonlSink(args.jsonl))
    if args.reports:
        extra_sinks.append(ReportFileSink(args.reports))
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

    from ..stream import GracefulShutdown

    with GracefulShutdown() as stop:
        # A SIGTERM/SIGINT stops ingest at the next record; the engine
        # then finalizes and flushes sinks normally, so an interrupted
        # replay still exits 0 with complete partial results.
        if kind == "quic":
            from ..quic import read_quic_capture

            report = engine.run(stop.wrap(read_quic_capture(args.pcap)))
        else:
            # Raw frames in: the engine picks the decoder (columnar
            # when numpy is importable, per-frame objects otherwise).
            from itertools import islice

            from ..core.pipeline import TRACE_CHUNK
            from ..net.pcapng import read_any_frames

            frames = iter(stop.wrap(read_any_frames(args.pcap)))
            while True:
                chunk = list(islice(frames, TRACE_CHUNK))
                if not chunk:
                    break
                engine.ingest_wire_chunk(chunk)
            report = engine.finish()
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

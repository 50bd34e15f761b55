"""``dart-stream``: the long-lived continuous monitoring daemon.

Where ``dart-replay`` analyzes a finished capture and exits,
``dart-stream`` runs until told to stop: it can tail a *growing*
capture (``--follow``), replay an archived one at its recorded pace
(``--pace``), checkpoint its complete state on an interval and on
SIGTERM/SIGINT, and resume from a checkpoint sample-for-sample.
Examples::

    # Follow a live capture, checkpoint every 30 s:
    dart-stream live.pcap --follow --checkpoint state.ckpt --csv out.csv

    # Stop it (flushes, checkpoints, exits 0):
    kill -TERM <pid>

    # Continue exactly where it stopped, in a fresh process:
    dart-stream live.pcap --follow --checkpoint state.ckpt --resume

    # Rehearse continuous operation from an archived trace at 10x:
    dart-stream archive.pcap --pace 10 --checkpoint state.ckpt

    # What's in a checkpoint?
    dart-stream --inspect state.ckpt
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from ..core.analytics import DstPrefixKey, MinFilterAnalytics
from ..engine import MonitorEngine, create
from ..net.packet import NS_PER_MS
from ..obs import add_telemetry_arguments, emitter_from_args
from ..stream import (
    AnalyticsTap,
    CaptureFileSource,
    CheckpointError,
    GracefulShutdown,
    PacedReplaySource,
    ResumableSink,
    StreamRunner,
    TailCaptureSource,
    read_header,
    resume_run,
)
from .distargs import add_distribution_arguments, build_distribution
from .shared import (
    add_export_arguments,
    add_leg_arguments,
    add_table_arguments,
    export_sinks,
    monitor_options,
    tcp_monitors,
)


def add_configuration_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags that configure a *fresh* run: what to measure, the
    analytics over it, the files it writes.  A checkpoint holds what
    they built, so ``--resume`` ignores them (and :func:`run` says so).
    """
    add_leg_arguments(parser)
    add_table_arguments(parser)
    window = parser.add_mutually_exclusive_group()
    window.add_argument("--window-samples", type=int, metavar="N",
                        help="min-filter analytics: close a window every "
                             "N samples per key")
    window.add_argument("--window-ms", type=float, metavar="MS",
                        help="min-filter analytics: close a window every "
                             "MS milliseconds per key")
    parser.add_argument("--window-prefix", type=int, metavar="LEN",
                        help="aggregate windows per destination /LEN "
                             "prefix instead of per flow")
    parser.add_argument("--retain-windows", type=int, default=64, metavar="N",
                        help="per-key closed-window index depth "
                             "(default 64; bounds daemon memory)")
    add_export_arguments(parser)
    parser.add_argument("--windows", metavar="PATH",
                        help="stream closed analytics windows as JSONL "
                             "(requires --window-samples/--window-ms)")
    add_distribution_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dart-stream",
        description="Continuously monitor RTTs from a capture stream, "
                    "with checkpoint/resume.",
    )
    parser.add_argument("pcap", nargs="?", help="capture file to stream from")
    parser.add_argument(
        "--inspect", metavar="CKPT",
        help="print a checkpoint's header as JSON and exit",
    )
    parser.add_argument(
        "--monitor", default="dart", choices=tcp_monitors(),
        help="monitor to run (default: dart)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--follow", action="store_true",
        help="tail the capture as it grows (tcpdump-style rotation is "
             "handled; waits for the file to appear)",
    )
    mode.add_argument(
        "--pace", nargs="?", type=float, const=1.0, default=None,
        metavar="SPEED",
        help="replay honoring trace timestamps in wall-clock time, "
             "optionally scaled (e.g. --pace 10 = 10x real time)",
    )
    add_configuration_arguments(parser)
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="write state snapshots here (on an interval "
                             "and on SIGTERM/SIGINT)")
    parser.add_argument("--checkpoint-interval", type=float, default=30.0,
                        metavar="SECONDS",
                        help="seconds between periodic checkpoints "
                             "(default 30)")
    parser.add_argument("--resume", action="store_true",
                        help="restore state from --checkpoint and continue "
                             "the run sample-for-sample")
    parser.add_argument("--rotation-records", type=int, default=65536,
                        metavar="N",
                        help="drain retained samples/windows every N "
                             "records (default 65536; bounds memory)")
    parser.add_argument("--chunk-size", type=int, default=8192, metavar="N",
                        help="capture frames per ingest chunk "
                             "(default 8192)")
    parser.add_argument("--max-records", type=int, default=None, metavar="N",
                        help="stop (and finalize) after N records")
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="--follow: seconds between polls when caught "
                             "up (default 0.5)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="--follow: give up (and finalize) after this "
                             "long with no new records (default: wait "
                             "forever)")
    add_telemetry_arguments(parser)
    return parser


def build_analytics(args):
    """Min-filter windows, a distribution stage wrapping them, or None.

    With ``--hist-bins``/``--hist-edges``/``--quantiles`` the min-filter
    (when configured) becomes the distribution stage's delegated inner,
    so windows, checkpoints, and drains all keep working unchanged.
    """
    if args.window_samples is None and args.window_ms is None:
        if args.window_prefix is not None:
            raise SystemExit(
                "--window-prefix requires --window-samples or --window-ms"
            )
        if args.windows:
            raise SystemExit(
                "--windows requires --window-samples or --window-ms"
            )
        return build_distribution(args)
    key_fn = (
        DstPrefixKey(args.window_prefix)
        if args.window_prefix is not None
        else None
    )
    min_filter = MinFilterAnalytics(
        window_samples=args.window_samples,
        window_ns=(
            int(args.window_ms * NS_PER_MS)
            if args.window_ms is not None
            else None
        ),
        key_fn=key_fn,
        retain_windows=args.retain_windows,
    )
    return build_distribution(args, inner=min_filter)


def build_source(args, resumed=None):
    """The packet source the mode flags ask for, continuing where
    ``resumed`` (a :class:`~repro.stream.runner.ResumedRun`) stopped."""
    at = resumed.source_kwargs if resumed is not None else {}
    if args.follow:
        return TailCaptureSource(
            args.pcap,
            poll_interval_s=args.poll_interval,
            idle_timeout_s=args.idle_timeout,
            **at,
        )
    if args.pace is not None:
        return PacedReplaySource(args.pcap, speed=args.pace, **at)
    return CaptureFileSource(args.pcap, **at)


def note_ignored_on_resume(args: argparse.Namespace, prog: str) -> None:
    """Name, on stderr, the configuration flags given a non-default
    value alongside ``--resume``: the checkpoint's configuration wins."""
    probe = argparse.ArgumentParser(add_help=False)
    add_configuration_arguments(probe)
    ignored = [
        "--" + dest.replace("_", "-")
        for dest, default in vars(probe.parse_args([])).items()
        if getattr(args, dest) != default
    ]
    if ignored:
        print(f"{prog}: --resume continues with the checkpoint's monitor, "
              "analytics and output files; ignored: " + " ".join(ignored),
              file=sys.stderr)


def run(args: argparse.Namespace, prog: str,
        collector: Optional[str] = None) -> int:
    """The daemon behind ``dart-stream`` and ``dart-agent``.

    ``collector`` (``dart-agent --collector``) attaches the fleet to the
    same run: a :class:`~repro.fleet.FleetExporter` hook, a
    :class:`~repro.fleet.FlowCountTap` on the sample stream and a
    :class:`~repro.fleet.WindowTee` on the closed windows.
    """
    if args.inspect:
        try:
            header = read_header(args.inspect)
        except CheckpointError as exc:
            raise SystemExit(f"{prog}: {exc}")
        try:
            print(json.dumps(header, indent=2, sort_keys=True))
            sys.stdout.flush()
        except BrokenPipeError:
            # Reader (e.g. `head`) went away; suppress the exit-time
            # flush error too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if not args.pcap:
        raise SystemExit(f"{prog}: a capture file is required")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")

    telemetry = emitter_from_args(args)
    resumed = None
    if args.resume:
        try:
            resumed = resume_run(args.checkpoint, args.monitor)
        except CheckpointError as exc:
            raise SystemExit(f"{prog}: cannot resume: {exc}")
        note_ignored_on_resume(args, prog)
        monitor, analytics, sinks = (
            resumed.monitor, resumed.analytics, resumed.sinks
        )
    else:
        analytics = build_analytics(args)
        monitor = create(args.monitor, monitor_options(
            args, analytics=analytics if args.monitor == "dart" else None
        ))
        sinks = export_sinks(args, ResumableSink)
        if args.windows:
            sinks.append(ResumableSink("windows", args.windows))

    window_sink = next((s for s in sinks if s.kind == "windows"), None)
    engine = MonitorEngine(telemetry=telemetry)
    engine_sinks: List = [s for s in sinks if s.kind != "windows"]
    label, exporter = prog, None
    if collector:
        from .. import fleet

        agent_id = args.agent_id or Path(args.pcap).stem
        label = f"{prog}[{agent_id}]"
        client = fleet.CollectorClient(collector)
        flow_tap = fleet.FlowCountTap()
        engine_sinks.append(flow_tap)
        exporter = fleet.FleetExporter(
            client,
            agent_id,
            engine=engine,
            monitor_name=args.monitor,
            flow_tap=flow_tap,
            analytics=analytics,
            telemetry=telemetry,
            push_interval_s=args.push_interval,
            heartbeat_interval_s=args.heartbeat_interval,
        )
        if resumed is not None:
            exporter.restore(resumed.hook_states.get(exporter.name))
        if analytics is not None:
            window_sink = fleet.WindowTee(
                sinks=[window_sink] if window_sink else [],
                taps=[exporter],
            )
    if analytics is not None and args.monitor != "dart":
        # Non-dart monitors don't embed analytics; feed it the routed
        # sample stream instead (on resume the restored analytics is
        # re-attached the same way).  The tap keeps the router's no-arg
        # flush/close teardown away from the analytics lifecycle.
        engine_sinks.append(AnalyticsTap(analytics))
    engine.add_monitor(monitor, name=args.monitor, sinks=engine_sinks)

    source = build_source(args, resumed)
    with GracefulShutdown() as stop:
        runner = StreamRunner(
            engine,
            source,
            shutdown=stop,
            sinks=sinks,
            analytics=analytics,
            window_sink=window_sink,
            checkpoint_path=args.checkpoint,
            checkpoint_interval_s=args.checkpoint_interval,
            rotation_records=args.rotation_records,
            chunk_size=args.chunk_size,
            max_records=args.max_records,
            telemetry=telemetry,
            hooks=[exporter] if exporter is not None else [],
        )
        if resumed is not None:
            runner.restore(resumed.header)
        report = runner.run()

    ending = "stopped by signal" if report.stopped else "source exhausted"
    print(f"{label}: {ending} after {report.records} records "
          f"({report.wall_seconds:.1f}s)")
    snapshot = getattr(analytics, "distribution_snapshot", None)
    if exporter is not None:
        print(f"  deltas sent: {exporter.deltas_sent}  "
              f"deferred: {exporter.deltas_deferred}  "
              f"heartbeats: {exporter.heartbeats_sent}  "
              f"reconnects: {client.reconnects}")
    elif callable(snapshot):
        distribution = snapshot()
        if distribution.count:
            quantiles = "  ".join(
                f"p{q:g}={rtt_ns / 1e6:.3f}ms"
                for q, rtt_ns in distribution.percentiles().items()
            )
            print(f"  distribution: {distribution.count} samples  "
                  f"{quantiles}")
    print(f"  rotations: {report.rotations}  "
          f"checkpoints: {report.checkpoints}  "
          f"windows shipped: {report.windows_shipped}")
    if exporter is None:
        for path, count in report.sink_counts.items():
            print(f"  {path}: {count} rows")
    if report.stopped and args.checkpoint:
        to_collector = f"--collector {collector} " if collector else ""
        print(f"  resume with: {prog} {args.pcap} {to_collector}"
              f"--checkpoint {args.checkpoint} --resume")
    return 0


def main(argv: Optional[list] = None) -> int:
    return run(build_parser().parse_args(argv), "dart-stream")


if __name__ == "__main__":
    sys.exit(main())

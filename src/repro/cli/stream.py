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
from typing import List, Optional

from ..core import DartConfig
from ..core.analytics import DstPrefixKey, MinFilterAnalytics
from ..core.pipeline import PrefixLegFilter
from ..engine import (
    MonitorEngine,
    MonitorOptions,
    available,
    create,
    get_spec,
)
from ..net.inet import ipv4_to_int, prefix_of
from ..net.packet import NS_PER_MS
from ..obs import add_telemetry_arguments, emitter_from_args
from .distargs import add_distribution_arguments, build_distribution
from ..stream import (
    AnalyticsTap,
    CaptureFileSource,
    CheckpointError,
    GracefulShutdown,
    PacedReplaySource,
    ResumableSink,
    StreamRunner,
    TailCaptureSource,
    read_checkpoint,
    read_header,
)


def _tcp_monitors() -> List[str]:
    return [n for n in available() if get_spec(n).record_kind == "tcp"]


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
        "--monitor", default="dart", choices=_tcp_monitors(),
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
    parser.add_argument(
        "--internal", metavar="PREFIX",
        help="internal network as a.b.c.d/len; enables leg separation",
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
    parser.add_argument("--csv", metavar="PATH",
                        help="stream samples to a CSV file")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="stream samples to a JSONL file")
    parser.add_argument("--reports", metavar="PATH",
                        help="stream binary report records")
    parser.add_argument("--windows", metavar="PATH",
                        help="stream closed analytics windows as JSONL "
                             "(requires --window-samples/--window-ms)")
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
    add_distribution_arguments(parser)
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


def build_leg_filter(args) -> Optional[PrefixLegFilter]:
    if args.internal:
        network_text, _, length_text = args.internal.partition("/")
        length = int(length_text) if length_text else 32
        network = prefix_of(ipv4_to_int(network_text), length)
        legs = (
            ("external", "internal") if args.leg == "both" else (args.leg,)
        )
        # PrefixLegFilter (not make_leg_filter's closure) so the monitor
        # pickles into checkpoints.
        return PrefixLegFilter(network=network, prefix_len=length, legs=legs)
    if args.leg != "both":
        raise SystemExit("--leg requires --internal to orient the path")
    return None


def build_source(args, resume_offset: Optional[int],
                 capture_format: Optional[str]):
    if args.follow:
        return TailCaptureSource(
            args.pcap,
            poll_interval_s=args.poll_interval,
            idle_timeout_s=args.idle_timeout,
            capture_format=capture_format,
            resume_offset=resume_offset,
        )
    if args.pace is not None:
        return PacedReplaySource(
            args.pcap,
            speed=args.pace,
            capture_format=capture_format,
            resume_offset=resume_offset,
        )
    return CaptureFileSource(
        args.pcap,
        capture_format=capture_format,
        resume_offset=resume_offset,
    )


def _fresh_sinks(args) -> List[ResumableSink]:
    sinks = []
    if args.csv:
        sinks.append(ResumableSink("csv", args.csv))
    if args.jsonl:
        sinks.append(ResumableSink("jsonl", args.jsonl))
    if args.reports:
        sinks.append(ResumableSink("reports", args.reports))
    if args.windows:
        sinks.append(ResumableSink("windows", args.windows))
    return sinks


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.inspect:
        try:
            header = read_header(args.inspect)
        except CheckpointError as exc:
            raise SystemExit(f"dart-stream: {exc}")
        try:
            print(json.dumps(header, indent=2, sort_keys=True))
            sys.stdout.flush()
        except BrokenPipeError:
            # Reader (e.g. `head`) went away; suppress the exit-time
            # flush error too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if not args.pcap:
        raise SystemExit("dart-stream: a capture file is required")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")

    telemetry = emitter_from_args(args)
    resume_offset: Optional[int] = None
    capture_format: Optional[str] = None

    if args.resume:
        try:
            checkpoint = read_checkpoint(args.checkpoint)
        except CheckpointError as exc:
            raise SystemExit(f"dart-stream: cannot resume: {exc}")
        if checkpoint.finalized:
            raise SystemExit(
                "dart-stream: cannot resume: the run behind "
                f"{args.checkpoint} already finalized"
            )
        monitors = checkpoint.payload["monitors"]
        if args.monitor not in monitors:
            known = ", ".join(sorted(monitors))
            raise SystemExit(
                f"dart-stream: checkpoint holds {known!r}, not "
                f"{args.monitor!r} — resume with the monitor the run "
                "started with"
            )
        monitor = monitors[args.monitor]
        analytics = checkpoint.payload.get("analytics")
        sinks = [
            ResumableSink.resume(state)
            for state in checkpoint.header["sinks"]
        ]
        source_state = checkpoint.header["source"]
        resume_offset = source_state["offset"]
        capture_format = source_state.get("format")
    else:
        analytics = build_analytics(args)
        options = MonitorOptions(
            config=DartConfig(
                rt_slots=args.rt_slots,
                pt_slots=args.pt_slots,
                pt_stages=args.stages,
                max_recirculations=args.recirc,
                track_handshake=args.handshake,
            ),
            leg_filter=build_leg_filter(args),
            track_handshake=args.handshake,
            analytics=analytics if args.monitor == "dart" else None,
        )
        monitor = create(args.monitor, options)
        sinks = _fresh_sinks(args)

    window_sink = next((s for s in sinks if s.kind == "windows"), None)
    sample_sinks = [s for s in sinks if s.kind != "windows"]
    engine = MonitorEngine(chunk_size=args.chunk_size, telemetry=telemetry)
    engine_sinks: List = list(sample_sinks)
    if analytics is not None and args.monitor != "dart":
        # Non-dart monitors don't embed analytics; feed it the routed
        # sample stream instead (on resume the restored analytics is
        # re-attached the same way).  The tap keeps the router's no-arg
        # flush/close teardown away from the analytics lifecycle.
        engine_sinks.append(AnalyticsTap(analytics))
    engine.add_monitor(monitor, name=args.monitor, sinks=engine_sinks)

    source = build_source(args, resume_offset, capture_format)

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
        )
        if args.resume:
            runner.restore(checkpoint.header)
        report = runner.run()

    ending = "stopped by signal" if report.stopped else "source exhausted"
    print(f"dart-stream: {ending} after {report.records} records "
          f"({report.wall_seconds:.1f}s)")
    snapshot = getattr(analytics, "distribution_snapshot", None)
    if callable(snapshot):
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
    for path, count in report.sink_counts.items():
        print(f"  {path}: {count} rows")
    if report.stopped and args.checkpoint:
        print(f"  resume with: dart-stream {args.pcap} --checkpoint "
              f"{args.checkpoint} --resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``dart-agent``: one fleet vantage point.

``dart-stream`` plus a hook: the same run (:func:`repro.cli.stream.run`
— same flags, sources, checkpoints, resume semantics) with a
:class:`~repro.fleet.FleetExporter` attached that pushes periodic
cumulative deltas (stats, flow counts, closed analytics windows,
telemetry) to a ``dart-collector``.  This module only adds the fleet
flags.  Examples::

    # Monitor one tap, report to the collector every second:
    dart-agent tap-east.pcap --collector 10.0.0.5:9500 \\
        --window-samples 8 --checkpoint east.ckpt

    # The agent id defaults to the capture's stem ("tap-east"); set it
    # explicitly when the path varies across restarts:
    dart-agent /captures/current.pcap --agent-id tap-east \\
        --collector unix:/run/dart/fleet.sock --follow

    # Resume after a crash — the collector replaces this agent's view
    # (cumulative deltas, new epoch), so nothing double-counts:
    dart-agent tap-east.pcap --collector 10.0.0.5:9500 \\
        --window-samples 8 --checkpoint east.ckpt --resume
"""

from __future__ import annotations

import sys
from typing import Optional

from .stream import build_parser as build_stream_parser, run


def build_parser():
    parser = build_stream_parser()
    parser.prog = "dart-agent"
    parser.description = (
        "Continuously monitor one tap and export deltas to a "
        "dart-collector."
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--collector", metavar="HOST:PORT|unix:PATH", required=False,
        help="the dart-collector wire endpoint (required)",
    )
    fleet.add_argument(
        "--agent-id", metavar="ID", default=None,
        help="this vantage point's stable identity (default: the "
             "capture file's stem; must not change across --resume)",
    )
    fleet.add_argument(
        "--push-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between delta pushes (default 1.0)",
    )
    fleet.add_argument(
        "--heartbeat-interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between heartbeats when no delta is due "
             "(default 2.0)",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    # Not argparse-required: --inspect needs neither capture nor collector.
    if args.pcap and not args.inspect and not args.collector:
        raise SystemExit("dart-agent: --collector is required")
    return run(args, "dart-agent", collector=args.collector)


if __name__ == "__main__":
    sys.exit(main())

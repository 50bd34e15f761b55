"""``dart-detect``: run the event detectors over a capture file.

Replays a pcap/pcapng through an RTT monitor (Dart by default; any
registered TCP monitor via ``--monitor``) and routes the sample stream
to the interception detector (per destination /24, windowed-min change
detection, paper §5.2) and the bufferbloat detector (§7), printing every
event with its timestamp.

Example::

    dart-detect capture.pcap --internal 10.0.0.0/8
    dart-detect capture.pcap --internal 10.0.0.0/8 --monitor tcptrace
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..core import DstPrefixKey
from ..detection import (
    BufferbloatConfig,
    BufferbloatDetector,
    DetectorConfig,
    InterceptionDetector,
)
from ..engine import MonitorEngine, MonitorOptions, create
from ..net.inet import format_prefix
from ..net.pcapng import read_any_frames
from ..obs import add_telemetry_arguments, emitter_from_args
from .shared import (
    INTERNAL_HELP,
    build_leg_filter,
    internal_prefix,
    tcp_monitors,
)

SEC = 1_000_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dart-detect",
        description="Detect interception/bufferbloat events in a capture.",
    )
    parser.add_argument("pcap", help="capture file (pcap or pcapng)")
    parser.add_argument("--monitor", choices=tcp_monitors(), default="dart",
                        help="RTT monitor feeding the detectors "
                             "(default: dart)")
    # Required here, and the detectors watch the external leg only, so
    # this script carries --internal without the leg group's --leg.
    parser.add_argument("--internal", metavar="PREFIX", required=True,
                        type=internal_prefix, help=INTERNAL_HELP)
    parser.add_argument("--prefix-len", type=int, default=24,
                        help="aggregation prefix for detection (default 24)")
    parser.add_argument("--window", type=int, default=8,
                        help="min-RTT window size in samples (default 8)")
    parser.add_argument("--rise-factor", type=float, default=2.0,
                        help="abrupt-rise threshold (default 2.0x)")
    add_telemetry_arguments(parser)
    return parser


class DetectionSink:
    """Routes samples into per-prefix interception + bufferbloat detectors.

    A :class:`repro.engine.SampleRouter` sink: the engine feeds it every
    sample the monitor emits, in emission order, and it prints events as
    they fire — the streaming behaviour of the old hand-rolled loop.
    """

    def __init__(self, *, prefix_len: int, window: int, rise_factor: float):
        self._prefix_len = prefix_len
        self._window = window
        self._rise_factor = rise_factor
        self._key_fn = DstPrefixKey(prefix_len)
        self.interception: dict = {}
        self.bloat = BufferbloatDetector(BufferbloatConfig(),
                                         key_fn=self._key_fn)
        self.events = 0

    def add(self, sample) -> None:
        key = self._key_fn(sample)
        detector = self.interception.get(key)
        if detector is None:
            detector = InterceptionDetector(
                DetectorConfig(window_samples=self._window,
                               rise_factor=self._rise_factor)
            )
            self.interception[key] = detector
        seen = len(detector.events)
        detector.add(sample)
        for event in detector.events[seen:]:
            self.events += 1
            print(f"t={event.timestamp_ns / SEC:10.3f}s  "
                  f"{format_prefix(key, self._prefix_len):>20s}  "
                  f"interception:{event.state.value:<10s} "
                  f"min={event.min_rtt_ns / 1e6:.1f}ms "
                  f"baseline={event.baseline_ns / 1e6:.1f}ms")
        episode = self.bloat.add(sample)
        if episode is not None:
            self.events += 1
            print(f"t={episode.confirmed_at_ns / SEC:10.3f}s  "
                  f"{format_prefix(key, self._prefix_len):>20s}  "
                  "bufferbloat confirmed: p90 "
                  f"{episode.inflation:.1f}x over "
                  f"{episode.baseline_min_ns / 1e6:.1f}ms floor")

    def confirmed_prefixes(self) -> list:
        return [
            format_prefix(key, self._prefix_len)
            for key, detector in self.interception.items()
            if detector.confirmed_at_ns is not None
        ]


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    monitor = create(args.monitor, MonitorOptions(
        leg_filter=build_leg_filter(args.internal, "external")
    ))
    sink = DetectionSink(prefix_len=args.prefix_len, window=args.window,
                         rise_factor=args.rise_factor)
    engine = MonitorEngine(telemetry=emitter_from_args(args))
    engine.add_monitor(monitor, name=args.monitor, sinks=[sink])
    engine.run_frames(read_any_frames(args.pcap))

    print(f"\n{monitor.stats.packets_processed} packets, "
          f"{monitor.stats.samples} samples, "
          f"{len(sink.interception)} prefixes monitored, "
          f"{sink.events} events",
          file=sys.stderr)
    confirmed = sink.confirmed_prefixes()
    if confirmed:
        print(f"interception CONFIRMED on: {', '.join(confirmed)}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

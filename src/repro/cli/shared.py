"""The flag vocabulary the console scripts share, and what it builds.

Each argparse group is declared once, next to the one function that
turns its values into objects, so a flag has the same type, default,
choices and help on every script that carries it: leg
(``--internal --leg`` -> :func:`build_leg_filter`), tables
(``--rt-slots --pt-slots --stages --recirc --handshake`` ->
:func:`monitor_options`), export (``--csv --jsonl --reports`` ->
:func:`export_sinks`) and shards (``--shards --parallel`` ->
:func:`build_monitor`).  :mod:`repro.cli.distargs` holds the
``--hist-*`` group the same way.
"""

from __future__ import annotations

import argparse
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from ..core import DartConfig
from ..core.pipeline import PrefixLegFilter
from ..engine import (
    MonitorOptions,
    available,
    create,
    get_spec,
    monitor_factory,
)
from ..net.inet import in_prefix, ipv4_to_int, prefix_of

INTERNAL_HELP = (
    "internal network as a.b.c.d/len; orients the path (which leg a TCP "
    "packet is on, which side is the client for spinbit)"
)


def tcp_monitors() -> List[str]:
    """Registered monitors that consume TCP records."""
    return [n for n in available() if get_spec(n).record_kind == "tcp"]


def internal_prefix(text: str) -> Tuple[int, int]:
    """argparse ``type=`` for ``--internal``: ``(network, prefix_len)``."""
    address, _, length = text.partition("/")
    try:
        prefix_len = int(length) if length else 32
        return prefix_of(ipv4_to_int(address), prefix_len), prefix_len
    except ValueError:  # bad address, bad integer, length outside 0..32
        raise argparse.ArgumentTypeError(
            f"expected a.b.c.d/len with len in 0..32, got {text!r}"
        ) from None


def add_leg_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--internal", metavar="PREFIX", type=internal_prefix,
                        help=INTERNAL_HELP)
    parser.add_argument(
        "--leg", choices=["external", "internal", "both"], default="both",
        help="which leg(s) to measure (requires --internal)",
    )


def add_table_arguments(parser: argparse.ArgumentParser) -> None:
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


def add_export_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", metavar="PATH",
                        help="stream samples to a CSV file")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="stream samples to a JSONL file")
    parser.add_argument("--reports", metavar="PATH",
                        help="stream binary report records (the "
                             "switch-to-collector format)")


def add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="flow-shard each monitor across N parallel "
                             "instances (default 1 = serial)")
    parser.add_argument("--parallel", choices=["process", "serial"],
                        default="process",
                        help="execution mode for --shards > 1 "
                             "(default: process)")


def build_leg_filter(internal: Optional[Tuple[int, int]],
                     leg: str = "both") -> Optional[PrefixLegFilter]:
    """The leg filter ``--internal``/``--leg`` ask for (None: no filter).

    Always the picklable :class:`PrefixLegFilter`, so a monitor built
    from flags crosses a shard boundary or lands in a checkpoint.
    """
    if internal is None:
        if leg != "both":
            raise SystemExit("--leg requires --internal to orient the path")
        return None
    network, prefix_len = internal
    legs = ("external", "internal") if leg == "both" else (leg,)
    return PrefixLegFilter(network=network, prefix_len=prefix_len, legs=legs)


def monitor_options(args: argparse.Namespace, **analytics) -> MonitorOptions:
    """One options bundle from the leg and table groups; ``analytics``
    passes ``analytics=`` or ``analytics_factory=`` through."""
    is_client = None
    if args.internal is not None:
        network, prefix_len = args.internal
        is_client = partial(in_prefix, network=network, prefix_len=prefix_len)
    return MonitorOptions(
        config=DartConfig(
            rt_slots=args.rt_slots,
            pt_slots=args.pt_slots,
            pt_stages=args.stages,
            max_recirculations=args.recirc,
            track_handshake=args.handshake,
        ),
        leg_filter=build_leg_filter(args.internal, args.leg),
        track_handshake=args.handshake,
        is_client=is_client,
        **analytics,
    )


def build_monitor(name: str, args: argparse.Namespace,
                  options: MonitorOptions):
    """One serial monitor, or a flow-sharded cluster of them."""
    if args.shards > 1:
        from ..cluster import ShardedDart

        return ShardedDart(
            shards=args.shards,
            parallel=args.parallel,
            monitor_factory=monitor_factory(name, options),
        )
    return create(name, options)


def export_sinks(args: argparse.Namespace,
                 make: Callable[[str, str], Any]) -> list:
    """``make(kind, path)`` for each export flag given, in flag order;
    kinds are the keys of :data:`repro.stream.SINK_KINDS`."""
    return [make(kind, getattr(args, kind))
            for kind in ("csv", "jsonl", "reports") if getattr(args, kind)]

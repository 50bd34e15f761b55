"""Shared ``--hist-*``/``--quantiles`` wiring for the CLI entry points.

``dart-replay``, ``dart-bench``, and ``dart-stream`` all expose the same
distribution-analytics knobs; this module owns the argparse group, the
flag-to-:class:`~repro.core.hist.HistogramSpec` translation, and the
summary-table rows so the three front-ends cannot drift apart
(:mod:`repro.cli.shared` holds the other shared groups the same way).
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Tuple

from ..core.analytics import DstPrefixKey
from ..core.hist import (
    DEFAULT_BINS,
    DistributionAnalytics,
    DistributionFactory,
    HistogramSpec,
)

#: Default per-key aggregation: destination /24 prefixes (the paper's
#: rack/subnet granularity); ``--hist-prefix 0`` disables keying.
DEFAULT_HIST_PREFIX = 24


def add_distribution_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the distribution-analytics flag group on ``parser``."""
    group = parser.add_argument_group(
        "distribution analytics",
        "fixed-bin RTT histogram + mergeable quantile sketch "
        "(switch-feasible: O(1) per sample, no per-sample retention)",
    )
    edges = group.add_mutually_exclusive_group()
    edges.add_argument(
        "--hist-bins", type=int, default=None, metavar="N",
        help=f"enable the histogram stage with N log-spaced bins "
             f"(e.g. {DEFAULT_BINS})",
    )
    edges.add_argument(
        "--hist-edges", metavar="MS,MS,...",
        help="enable the histogram stage with explicit bin edges in "
             "milliseconds (e.g. 0.1,1,10,100)",
    )
    group.add_argument(
        "--quantiles", metavar="P,P,...",
        help="sketch-estimated percentiles to report/export "
             "(e.g. 50,95,99; implies the distribution stage)",
    )
    group.add_argument(
        "--hist-prefix", type=int, default=DEFAULT_HIST_PREFIX,
        metavar="LEN",
        help="key per-prefix series by destination /LEN "
             f"(default {DEFAULT_HIST_PREFIX}; 0 = aggregate only)",
    )
    group.add_argument(
        "--sketch-alpha", type=float, default=0.01, metavar="ALPHA",
        help="sketch relative-accuracy guarantee (default 0.01 = 1%%)",
    )


def distribution_enabled(args: argparse.Namespace) -> bool:
    return (
        getattr(args, "hist_bins", None) is not None
        or getattr(args, "hist_edges", None) is not None
        or getattr(args, "quantiles", None) is not None
    )


def _parse_quantiles(text: Optional[str]) -> Optional[Tuple[float, ...]]:
    if text is None:
        return None
    try:
        values = tuple(
            float(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise SystemExit(f"bad --quantiles value: {text!r}") from None
    if not values:
        raise SystemExit("--quantiles needs at least one percentile")
    return values


def distribution_factory_from_args(
    args: argparse.Namespace,
    inner_factory=None,
) -> Optional[DistributionFactory]:
    """Build the picklable factory the engine/cluster hands each shard.

    Returns ``None`` when no distribution flag was given; raises
    ``SystemExit`` on malformed flag values (CLI contract).
    """
    if not distribution_enabled(args):
        return None
    try:
        if args.hist_edges is not None:
            spec = HistogramSpec.from_edges_ms(args.hist_edges)
        else:
            # None means "stage implied by --quantiles": use the default
            # bin count.  An explicit 0 must reject, not coerce.
            bins = (args.hist_bins if args.hist_bins is not None
                    else DEFAULT_BINS)
            spec = HistogramSpec.log_bins(bins)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if not 0 < args.sketch_alpha < 1:
        raise SystemExit("--sketch-alpha must be in (0, 1)")
    if args.hist_prefix < 0 or args.hist_prefix > 32:
        raise SystemExit("--hist-prefix must be in [0, 32]")
    quantiles = _parse_quantiles(args.quantiles)
    kwargs = {} if quantiles is None else {"quantiles": quantiles}
    return DistributionFactory(
        spec=spec,
        alpha=args.sketch_alpha,
        key_fn=(DstPrefixKey(args.hist_prefix) if args.hist_prefix else None),
        inner_factory=inner_factory,
        **kwargs,
    )


def build_distribution(
    args: argparse.Namespace,
    inner=None,
) -> Optional[DistributionAnalytics]:
    """One configured instance (serial paths: ``dart-stream``), with
    the caller's existing analytics (e.g. the daemon's MinFilter) as
    its delegated inner stage; ``inner`` itself when no flag asks for
    a distribution."""
    factory = distribution_factory_from_args(
        args, inner_factory=lambda: inner
    )
    return inner if factory is None else factory()


def monitor_distribution(monitor) -> Optional[DistributionAnalytics]:
    """Read a monitor's distribution snapshot, serial or sharded.

    ``ShardedDart`` exposes a merged ``distribution`` property
    (reading it finalizes the cluster); serial monitors carry
    the stage on ``monitor.analytics``.
    """
    dist = getattr(type(monitor), "distribution", None)
    if isinstance(dist, property):
        return getattr(monitor, "distribution")
    analytics = getattr(monitor, "analytics", None)
    snapshot = getattr(analytics, "distribution_snapshot", None)
    if callable(snapshot):
        return snapshot()
    return None


def distribution_rows(distribution: DistributionAnalytics) -> List[list]:
    """Summary-table rows for one distribution stage."""
    total = distribution.histogram()
    rows: List[list] = [
        ["histogram bins", distribution.spec.bins],
        ["histogram samples", total.count],
    ]
    if total.count:
        for q, rtt_ns in distribution.percentiles().items():
            rows.append(
                [f"sketch p{q:g} RTT (ms)", f"{rtt_ns / 1e6:.3f}"]
            )
        rows.append(
            ["hist mean RTT (ms)", f"{total.mean_ns() / 1e6:.3f}"],
        )
    return rows

#!/usr/bin/env python
"""Accuracy gate for the distribution analytics (CI: analytics-accuracy).

Runs the histogram + sketch stage (:mod:`repro.core.hist`) over a
*pinned* synthetic campus sweep and asserts the two guarantees the
stage ships with, plus the cluster-merge identity:

* **sketch vs exact** — for every gated percentile ``p``, the sketch
  estimate is within ``alpha`` (relative) of the exact order statistic
  at the sketch's own rank, ``sorted(rtts)[floor(p/100 * (n-1))]``.
  That is the DDSketch guarantee as stated: the bound is against the
  sample value whose rank the sketch targets, not the interpolated
  quantile — in a heavy RTT tail, adjacent p99 order statistics can
  differ by more than ``alpha`` on their own, so checking against the
  interpolated value would make the gate flaky by construction.  The
  interpolated :func:`~repro.core.hist.exact_quantile` is still
  reported alongside for the human reading the artifact;
* **histogram vs exact** — the fixed-bin estimate lands within one bin
  width of the exact value (the resolution limit of bin-midpoint
  estimation; a violation means the binning or rank math broke);
* **shard merge == serial** — a 4-shard process-mode run's merged
  histogram equals the serial histogram *bin for bin* (per key and
  aggregate), and its merged sketch reports identical quantiles.
  Flow-consistent sharding puts each key's state in exactly one
  shard, so addition-merge must reproduce serial state exactly —
  any drift is a lost or double-counted sample.

Writes a JSON report (the CI job's uploaded artifact) and exits
non-zero on any violation::

    PYTHONPATH=src python benchmarks/analytics_accuracy.py \\
        --connections 5000 --output accuracy_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ShardedDart  # noqa: E402
from repro.core import Dart, DartConfig  # noqa: E402
from repro.core.analytics import CollectAllAnalytics, DstPrefixKey  # noqa: E402
from repro.core.hist import (  # noqa: E402
    DistributionFactory,
    HistogramSpec,
    exact_quantile,
)
from repro.traces import CampusTraceConfig, generate_campus_trace  # noqa: E402

#: The pinned sweep (the report's identity): CI runs 5000 connections.
DEFAULT_CONNECTIONS = 5000
SEED = 23
SHARDS = 4
QUANTILES = (50.0, 95.0, 99.0)
ALPHA = 0.01
BINS = 32
PREFIX_LEN = 24
#: Unconstrained tables: accuracy is about the analytics stage, not
#: eviction behaviour, so every sample the monitor can take it takes.
CONFIG = DartConfig()


def build_factory() -> DistributionFactory:
    return DistributionFactory(
        spec=HistogramSpec.log_bins(BINS),
        alpha=ALPHA,
        quantiles=QUANTILES,
        key_fn=DstPrefixKey(PREFIX_LEN),
        inner_factory=CollectAllAnalytics,
    )


def bin_width_ns(spec: HistogramSpec, value_ns: float) -> float:
    """Width of the bin holding ``value_ns`` (the estimate's resolution).

    The underflow bin spans [0, first edge); the overflow bin has no
    upper edge, so its "width" is the last finite span — the histogram
    clamps overflow estimates to the observed max, which sits within
    one such span of any exact quantile that landed there.
    """
    from bisect import bisect_left

    edges = spec.edges_ns
    index = bisect_left(edges, value_ns)
    if index == 0:
        return float(edges[0])
    if index >= len(edges):
        return float(edges[-1] - edges[-2]) if len(edges) > 1 \
            else float(edges[0])
    return float(edges[index] - edges[index - 1])


def check_accuracy(distribution, exact_rtts, failures: List[str]) -> dict:
    """Sketch and histogram estimates vs the exact sample quantiles."""
    rows = []
    spec = distribution.spec
    total_sketch = distribution.sketch()
    total_hist = distribution.histogram()
    data = sorted(exact_rtts)
    for q in QUANTILES:
        exact = exact_quantile(data, q)
        # The order statistic the sketch's rank rule targets — the
        # value its alpha guarantee is stated against.
        rank_exact = float(data[int(q / 100 * (len(data) - 1))])
        sketch = total_sketch.quantile(q)
        hist = total_hist.quantile(q)
        sketch_rel = (abs(sketch - rank_exact) / rank_exact
                      if rank_exact else 0.0)
        hist_abs = abs(hist - exact)
        hist_budget = bin_width_ns(spec, exact)
        sketch_ok = sketch_rel <= ALPHA
        hist_ok = hist_abs <= hist_budget
        if not sketch_ok:
            failures.append(
                f"sketch p{q:g}: relative error {sketch_rel:.4f} exceeds "
                f"alpha={ALPHA} (sketch {sketch:.0f} ns vs rank-exact "
                f"{rank_exact:.0f} ns)"
            )
        if not hist_ok:
            failures.append(
                f"histogram p{q:g}: |{hist:.0f} - {exact:.0f}| = "
                f"{hist_abs:.0f} ns exceeds the {hist_budget:.0f} ns "
                "bin width"
            )
        rows.append({
            "quantile": q,
            "exact_ns": exact,
            "rank_exact_ns": rank_exact,
            "sketch_ns": sketch,
            "sketch_rel_error": round(sketch_rel, 6),
            "sketch_alpha": ALPHA,
            "sketch_ok": sketch_ok,
            "hist_ns": hist,
            "hist_abs_error_ns": hist_abs,
            "hist_bin_width_ns": hist_budget,
            "hist_ok": hist_ok,
        })
    return {"samples": len(exact_rtts), "quantiles": rows}


def check_shard_merge(records, serial_dist, failures: List[str]) -> dict:
    """4-shard process-mode merged distribution vs the serial one."""
    cluster = ShardedDart(
        CONFIG, shards=SHARDS, parallel="process",
        analytics_factory=build_factory(),
    )
    cluster.process_trace(records)
    cluster.finalize()
    merged = cluster.distribution
    if merged is None:
        failures.append("sharded run produced no distribution")
        return {"shards": SHARDS, "identical": False}
    hist_identical = merged.histograms() == serial_dist.histograms()
    if not hist_identical:
        failures.append(
            f"{SHARDS}-shard merged histogram differs from serial "
            "(bin-for-bin equality violated)"
        )
    sketch_rows = []
    sketch_identical = True
    serial_sketch = serial_dist.sketch()
    merged_sketch = merged.sketch()
    for q in QUANTILES:
        serial_q = serial_sketch.quantile(q)
        merged_q = merged_sketch.quantile(q)
        same = serial_q == merged_q
        sketch_identical = sketch_identical and same
        if not same:
            failures.append(
                f"{SHARDS}-shard merged sketch p{q:g} = {merged_q:.0f} ns "
                f"differs from serial {serial_q:.0f} ns"
            )
        sketch_rows.append({
            "quantile": q,
            "serial_ns": serial_q,
            "merged_ns": merged_q,
            "identical": same,
        })
    return {
        "shards": SHARDS,
        "serial_samples": serial_dist.count,
        "merged_samples": merged.count,
        "histogram_identical": hist_identical,
        "sketch_identical": sketch_identical,
        "sketch_quantiles": sketch_rows,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert sketch/histogram accuracy and shard-merge "
                    "identity over the pinned sweep.",
    )
    parser.add_argument("--connections", type=int,
                        default=DEFAULT_CONNECTIONS,
                        help=f"sweep size (default {DEFAULT_CONNECTIONS})")
    parser.add_argument("--output", default="accuracy_report.json",
                        help="JSON report path "
                             "(default: accuracy_report.json)")
    parser.add_argument("--skip-cluster", action="store_true",
                        help="skip the 4-shard merge-identity leg")
    args = parser.parse_args(argv)

    print(f"generating campus sweep ({args.connections} connections, "
          f"seed {SEED})...", file=sys.stderr)
    trace = generate_campus_trace(
        CampusTraceConfig(connections=args.connections, seed=SEED)
    )
    print(f"sweep: {trace.packets} packets", file=sys.stderr)

    dart = Dart(CONFIG, analytics=build_factory()())
    dart.process_batch(trace.records)
    distribution = dart.analytics.distribution_snapshot()
    exact_rtts = [s.rtt_ns for s in dart.samples]
    if not exact_rtts:
        print("accuracy: FAIL: the sweep produced zero RTT samples",
              file=sys.stderr)
        return 1

    failures: List[str] = []
    report = {
        "workload": {
            "connections": args.connections,
            "seed": SEED,
            "packets": trace.packets,
            "bins": BINS,
            "alpha": ALPHA,
            "prefix_len": PREFIX_LEN,
        },
        "accuracy": check_accuracy(distribution, exact_rtts, failures),
    }
    for row in report["accuracy"]["quantiles"]:
        print(f"p{row['quantile']:g}: exact {row['exact_ns'] / 1e6:.3f} ms, "
              f"sketch {row['sketch_ns'] / 1e6:.3f} ms "
              f"(rel {row['sketch_rel_error']:.4%}), "
              f"hist {row['hist_ns'] / 1e6:.3f} ms "
              f"(abs {row['hist_abs_error_ns'] / 1e6:.3f} ms / "
              f"bin {row['hist_bin_width_ns'] / 1e6:.3f} ms)",
              file=sys.stderr)

    if not args.skip_cluster:
        print(f"{SHARDS}-shard process-mode merge-identity leg...",
              file=sys.stderr)
        report["shard_merge"] = check_shard_merge(
            trace.records, distribution, failures
        )

    report["failures"] = failures
    report["ok"] = not failures
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"accuracy: FAIL: {failure}", file=sys.stderr)
        return 1
    print("accuracy: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

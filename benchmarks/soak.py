#!/usr/bin/env python
"""Nightly soak: every monitor, one big mixed trace, telemetry on.

The nightly CI workflow runs this at REPRO_BENCH_CONNECTIONS=5000 — a
campus-scale TCP trace plus a QUIC spin-bit session interleaved by
timestamp, pushed through one :class:`~repro.engine.MonitorEngine`
pass with all five registered monitors attached (Dart flow-sharded
across process workers) and a Prometheus telemetry emitter writing
periodic snapshots to disk.

Pass criteria (exit 0):

* the pass completes — no :class:`~repro.cluster.ShardFailure` raised,
  no :class:`~repro.cluster.ClusterPartialResultWarning` observed, and
  every shard result is complete (``partial=False``, zero windows
  lost);
* every monitor produced RTT samples;
* the telemetry snapshot file exists and parses back as well-formed
  Prometheus text exposition with zero partial shards recorded.

The final snapshot (``--telemetry-out``) is the workflow's uploaded
artifact: one complete end-of-trace exposition, atomically rewritten
per emission, so a failed night still leaves the last good state.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ClusterPartialResultWarning, ShardedDart  # noqa: E402
from repro.core.analytics import CollectAllAnalytics, DstPrefixKey  # noqa: E402
from repro.core.hist import DistributionFactory, HistogramSpec  # noqa: E402
from repro.engine import (  # noqa: E402
    MonitorEngine,
    MonitorOptions,
    available,
    get_spec,
    create,
    monitor_factory,
)
from repro.net.pcap import write_packets  # noqa: E402
from repro.obs import TelemetryEmitter, parse_prometheus  # noqa: E402
from repro.stream import (  # noqa: E402
    CaptureFileSource,
    GracefulShutdown,
    ResumableSink,
    StreamRunner,
    resume_run,
)
from repro.quic import QuicScenarioConfig, generate_quic_trace  # noqa: E402
from repro.traces import CampusTraceConfig, generate_campus_trace  # noqa: E402

DEFAULT_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "5000"))
SEED = 19
SHARDS = 4
#: The --hist axis distribution stage: dart-replay's acceptance shape
#: (32 log bins keyed per destination /24), with a CollectAll inner so
#: check_samples still sees every monitor's samples.
HIST_FACTORY = DistributionFactory(
    spec=HistogramSpec.log_bins(32),
    key_fn=DstPrefixKey(24),
    inner_factory=CollectAllAnalytics,
)


def build_records(connections: int):
    """One time-ordered mixed trace: campus TCP + a QUIC session."""
    trace = generate_campus_trace(
        CampusTraceConfig(connections=connections, seed=SEED)
    )
    tcp_records = trace.records
    duration_ns = tcp_records[-1].timestamp_ns - tcp_records[0].timestamp_ns
    quic_trace = generate_quic_trace(
        QuicScenarioConfig(duration_ns=max(duration_ns, 1_000_000_000))
    )
    merged = list(tcp_records) + list(quic_trace.records)
    merged.sort(key=lambda r: r.timestamp_ns)
    return trace, quic_trace, merged


def build_engine(trace, emitter, options: MonitorOptions) -> MonitorEngine:
    """All five registered monitors on one engine; Dart sharded.

    The sharded Dart's process workers read their byte batches with
    ``struct`` (``Dart.process_framed``) whether or not numpy is
    installed — nothing here selects.  The main mixed pass itself stays
    record-driven (it interleaves QUIC datagrams, which the columnar
    engine does not decode), so a numpy night exercises the full
    columnar ingest only in the streaming leg.
    """
    engine = MonitorEngine(telemetry=emitter)
    for name in available():
        spec = get_spec(name)
        if name == "dart":
            monitor = ShardedDart(
                shards=SHARDS,
                parallel="process",
                monitor_factory=monitor_factory(name, options),
            )
        else:
            monitor = create(name, options)
        engine.add_monitor(monitor, name=name, record_kind=spec.record_kind)
    return engine


def check_cluster_health(engine, failures: List[str]) -> None:
    dart = engine["dart"].monitor
    for result in dart.shard_results:
        if result.partial:
            failures.append(f"shard {result.shard_id} finished partial")
        if result.windows_lost:
            failures.append(
                f"shard {result.shard_id} lost {result.windows_lost} windows"
            )


def check_samples(engine, failures: List[str]) -> None:
    for run in engine.runs:
        if not run.monitor.samples:
            failures.append(f"monitor {run.name!r} produced zero samples")


def check_snapshot(path: str, failures: List[str]) -> None:
    try:
        snapshot = parse_prometheus(Path(path).read_text())
    except (OSError, ValueError) as exc:
        failures.append(f"telemetry snapshot unreadable: {exc}")
        return
    if len(snapshot) == 0:
        failures.append("telemetry snapshot carries no metrics")
        return
    partial = snapshot.get("dart_cluster_partial_shards_total")
    if partial is not None and sum(partial.values.values()) != 0:
        failures.append("telemetry recorded partial shards")


def check_hist_merge(engine, records, options: MonitorOptions,
                     failures: List[str]) -> None:
    """The --hist axis invariant: merged-across-shards == serial.

    The soaked Dart is flow-sharded across :data:`SHARDS` process
    workers; its merged distribution (per-shard snapshots folded by
    addition) must equal — bin for bin and sketch bucket for sketch
    bucket — the distribution a single serial monitor builds over the
    same records.  A second single-monitor engine pass provides that
    reference.
    """
    merged = engine["dart"].monitor.distribution
    if merged is None:
        failures.append("hist axis: sharded Dart exposes no distribution")
        return
    serial_monitor = monitor_factory("dart", options)()
    spec = get_spec("dart")
    reference = MonitorEngine()
    reference.add_monitor(serial_monitor, name="dart",
                          record_kind=spec.record_kind)
    reference.run(records)
    serial = serial_monitor.analytics.distribution_snapshot()
    if merged != serial:
        failures.append("hist axis: merged shard histograms or sketches "
                        "differ from the serial reference")


def check_streaming_kill_resume(tcp_records, failures: List[str]) -> None:
    """The continuous-operation leg: stream, stop mid-run, resume.

    A soak isn't only about one long pass — a daemon that runs for
    weeks *will* be restarted.  This leg streams the TCP trace, forces
    a shutdown partway through (the SIGTERM path, requested in-process
    for determinism), resumes from the checkpoint with a fresh engine
    and monitor, and requires the stitched-together CSV to be
    byte-identical to an uninterrupted streaming run.
    """
    def fresh_engine():
        monitor = create("dart", MonitorOptions())
        engine = MonitorEngine()
        return engine, monitor

    with tempfile.TemporaryDirectory(prefix="soak-stream-") as tmpdir:
        tmp = Path(tmpdir)
        capture = tmp / "capture.pcap"
        write_packets(capture, tcp_records)

        # Uninterrupted streaming reference.
        engine, monitor = fresh_engine()
        ref_csv = ResumableSink("csv", tmp / "ref.csv")
        engine.add_monitor(monitor, name="dart", sinks=[ref_csv])
        StreamRunner(engine, CaptureFileSource(capture),
                     sinks=[ref_csv], chunk_size=1024).run()

        # Segment 1: stop after a handful of chunks, checkpoint.
        stop = GracefulShutdown()
        source = CaptureFileSource(capture)
        inner_chunks = source.chunks

        def stopping_chunks(max_records):
            for i, chunk in enumerate(inner_chunks(max_records)):
                yield chunk
                if i == 1:
                    stop.request()

        source.chunks = stopping_chunks
        engine, monitor = fresh_engine()
        out_csv = ResumableSink("csv", tmp / "out.csv")
        engine.add_monitor(monitor, name="dart", sinks=[out_csv])
        ckpt = tmp / "state.ckpt"
        segment = StreamRunner(engine, source, shutdown=stop,
                               sinks=[out_csv], chunk_size=1024,
                               checkpoint_path=str(ckpt)).run()
        if not segment.stopped:
            failures.append("streaming leg: stop request did not stop "
                            "the run")
            return

        # Segment 2: fresh engine, restored monitor, resumed sink.
        resumed = resume_run(ckpt, "dart")
        engine = MonitorEngine()
        engine.add_monitor(resumed.monitor, name="dart", sinks=resumed.sinks)
        source = CaptureFileSource(capture, **resumed.source_kwargs)
        runner = StreamRunner(engine, source, sinks=resumed.sinks,
                              chunk_size=1024, checkpoint_path=str(ckpt))
        runner.restore(resumed.header)
        final = runner.run()
        if not final.finalized:
            failures.append("streaming leg: resumed run did not finalize")
        if final.records != len(tcp_records):
            failures.append(
                f"streaming leg: resumed run saw {final.records} records, "
                f"expected {len(tcp_records)}"
            )
        if (tmp / "out.csv").read_bytes() != (tmp / "ref.csv").read_bytes():
            failures.append("streaming leg: kill/resume CSV differs from "
                            "the uninterrupted streaming run")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Soak every monitor over one large mixed trace.",
    )
    parser.add_argument("--connections", type=int,
                        default=DEFAULT_CONNECTIONS,
                        help="campus trace size (default: "
                             "$REPRO_BENCH_CONNECTIONS or 5000)")
    parser.add_argument("--telemetry-out", default="soak_telemetry.prom",
                        help="Prometheus snapshot file (default: "
                             "soak_telemetry.prom)")
    parser.add_argument("--telemetry-interval", type=float, default=2.0,
                        help="seconds between emissions (default 2.0)")
    parser.add_argument("--hist", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="distribution axis: attach the histogram + "
                             "sketch stage (32 log bins per dst /24) to "
                             "the sharded Dart and require its merged "
                             "distribution to equal a serial reference "
                             "bin for bin (default: off)")
    args = parser.parse_args(argv)

    print(f"generating traces ({args.connections} connections, seed {SEED})"
          "...", file=sys.stderr)
    trace, quic_trace, records = build_records(args.connections)
    print(f"trace: {len(records)} records ({trace.packets} TCP + "
          f"{quic_trace.packets} QUIC)", file=sys.stderr)

    emitter = TelemetryEmitter(
        "prom", interval_s=args.telemetry_interval, path=args.telemetry_out
    )
    options = MonitorOptions(
        is_client=lambda addr: trace.is_internal(addr),
        analytics_factory=HIST_FACTORY if args.hist else None,
    )
    engine = build_engine(trace, emitter, options)

    failures: List[str] = []
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = engine.run(records)
    elapsed = time.perf_counter() - started
    for warning in caught:
        if issubclass(warning.category, ClusterPartialResultWarning):
            failures.append(f"partial-result warning: {warning.message}")

    check_cluster_health(engine, failures)
    check_samples(engine, failures)
    check_snapshot(args.telemetry_out, failures)
    if args.hist:
        print("hist merge-vs-serial leg...", file=sys.stderr)
        # TCP records only: the mixed trace's QUIC datagrams route to
        # spinbit in the soaked engine, so Dart never saw them.
        check_hist_merge(engine, trace.records, options, failures)
    print("streaming kill/resume leg...", file=sys.stderr)
    check_streaming_kill_resume(trace.records, failures)

    print(f"soak: {report.records} records in {elapsed:.1f}s "
          f"({report.records_per_second:,.0f} rec/s)", file=sys.stderr)
    for run in engine.runs:
        print(f"  {run.name:<10} {len(run.monitor.samples):>8} samples",
              file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"soak: FAIL: {failure}", file=sys.stderr)
        return 1
    print("soak: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The five `dart-e2e` workloads.

Each workload knows how to *build* the objects a run needs (set-up, up
to "the first packet can be offered"), *run* one untraced pass from the
first read to ``finish()``/``finalize()`` returned, run the same pass
*traced* (timing wrappers on public layer boundaries, see
:mod:`tracing`), report what a pass produced (:class:`Outcome`), and
compute the *reference* outcome the passes are checked against.

README.md says why each workload exists and which optimisation it is the
bypass case for.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core import Dart, DartConfig, MinFilterAnalytics, SampleCollector
from repro.core.analytics import DstPrefixKey
from repro.core.flow import intern_flow
from repro.core.hist import DistributionFactory, HistogramSpec
from repro.core.pipeline import TRACE_CHUNK
from repro.engine import MonitorEngine
from repro.net.inet import ipv4_to_int
from repro.net.pcapng import read_any_capture, read_any_frames

from tracing import Tracer

#: The deployed table sizing every campus workload uses (the same one
#: ``benchmarks/perf_baseline.py`` pins).
CAMPUS_CONFIG = DartConfig(rt_slots=1 << 18, pt_slots=1 << 14, pt_stages=1,
                           max_recirculations=1)
#: Tables far smaller than the incast's live state, so collapse,
#: eviction, recirculation and the analytics purge carry the run.
PRESSURE_CONFIG = DartConfig(rt_slots=1 << 10, pt_slots=1 << 8, pt_stages=2,
                             max_recirculations=4, analytics_purge=True)
HIST_FACTORY = DistributionFactory(spec=HistogramSpec.log_bins(32),
                                   key_fn=DstPrefixKey(24))
SHARDS = 2

SampleKey = Tuple[int, int, int, int, int, int, int]


def sample_key(sample) -> SampleKey:
    flow = sample.flow
    return (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
            sample.eack, sample.rtt_ns, sample.timestamp_ns)


@dataclass
class Context:
    """What a workload is given: the input file and a scratch directory."""

    path: str
    packets: int
    workdir: Path


@dataclass
class Outcome:
    """What one pass (or the reference run) produced."""

    stats: Any
    processed: int
    samples: List[SampleKey]
    #: The reference run also keeps the sample objects, for the oracle.
    raw: Optional[list] = field(default=None, kw_only=True)
    #: Side outputs that are missing or wrong (a skipped checkpoint, a
    #: short sink file); any entry fails every packet of the pass.
    problems: Tuple[str, ...] = field(default=(), kw_only=True)


def _quantile_ms(durations_ns: List[int], quantile: float = 0.5) -> float:
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[min(len(ordered) - 1, int(len(ordered) * quantile))] / 1e6


# -- shared tracing of the serial Dart kernel ---------------------------------

_CLASSIFY_FUNCTIONS = ("eack_values", "flow_crcs", "signatures", "mix32",
                       "pt_match_crcs")


def trace_dart(tracer: Tracer, dart: Dart, entry_point: str) -> None:
    """Time the kernel entry point and everything it calls out to.

    RT, PT and analytics get proxies on the public ``Dart`` attributes
    (the kernel looks them up per call); the entry point is patched on
    the class so a checkpointed ``Dart`` still pickles.
    """
    tracer.proxy(dart, "range_tracker", "core.range_tracker",
                 ("on_data", "on_ack", "revalidate"))
    tracer.proxy(dart, "packet_tracker", "core.packet_tracker",
                 ("insert", "match_ack"))
    tracer.proxy(dart, "analytics", "core.analytics",
                 ("add", "flush", "worth_recirculating"))
    tracer.patch(Dart, entry_point, "core.pipeline.kernel")
    if entry_point == "process_columns":
        from repro.fastpath import classify

        for function in _CLASSIFY_FUNCTIONS:
            tracer.patch(classify, function, f"fastpath.classify.{function}")


def trace_columnar_decode(tracer: Tracer) -> Dict[str, int]:
    """Time ``decode_wire_columns`` and count the rows leaving the
    vector path at the same boundary."""
    from repro.net import columnar

    rows = {"rows": 0, "fallback": 0, "skip": 0}

    def count(cols) -> None:
        rows["rows"] += cols.n
        rows["fallback"] += int((cols.kinds == columnar.KIND_RECORD).sum())
        rows["skip"] += int((cols.kinds == columnar.KIND_SKIP).sum())

    tracer.patch(columnar, "decode_wire_columns", "net.columnar.decode",
                 after=count)
    return rows


def dart_layer_metrics(tracer: Tracer, dart: Dart, packets: int,
                       proxy_cost_ns: float) -> Dict[str, float]:
    """Kernel, RT, PT, classify and analytics numbers of one traced pass
    (read after :meth:`Tracer.restore`, so ``dart`` holds its real
    tables again)."""
    stats = dart.stats
    rt, pt = dart.range_tracker, dart.packet_tracker
    rt_calls = tracer.calls("core.range_tracker.")
    pt_calls = tracer.calls("core.packet_tracker.")
    kernel = tracer.span("core.pipeline.kernel")
    # Wrapper frames of the kernel's direct children land in its span.
    wrapped_children = (rt_calls + pt_calls + tracer.calls("core.analytics.")
                        + tracer.calls("fastpath.classify."))
    raw = kernel.self_ns / packets
    samples = max(stats.samples, 1)
    return {
        "fastpath.classify.classify_ns_per_pkt":
            tracer.self_ns("fastpath.classify.") / packets,
        "core.range_tracker.on_data_ns":
            tracer.per_call_ns("core.range_tracker.on_data"),
        "core.range_tracker.on_ack_ns":
            tracer.per_call_ns("core.range_tracker.on_ack"),
        "core.range_tracker.revalidate_ns":
            tracer.per_call_ns("core.range_tracker.revalidate"),
        "core.range_tracker.calls_per_pkt": rt_calls / packets,
        "core.range_tracker.collapses_per_kpkt":
            rt.stats.total_collapses * 1000.0 / packets,
        "core.range_tracker.occupancy": rt.occupancy(),
        "core.packet_tracker.insert_ns":
            tracer.per_call_ns("core.packet_tracker.insert"),
        "core.packet_tracker.match_ns":
            tracer.per_call_ns("core.packet_tracker.match_ack"),
        "core.packet_tracker.calls_per_pkt": pt_calls / packets,
        "core.packet_tracker.evictions_per_kpkt":
            stats.evictions * 1000.0 / packets,
        "core.packet_tracker.recirculations_per_pkt":
            stats.recirculations / packets,
        "core.packet_tracker.revalidated_share":
            ((stats.recirculations - stats.stale_self_destructs)
             / stats.recirculations) if stats.recirculations else 0.0,
        "core.packet_tracker.occupancy": pt.occupancy(),
        "core.pipeline.kernel_self_raw_ns_per_pkt": raw,
        "core.pipeline.kernel_self_ns_per_pkt":
            max(0.0, raw - wrapped_children * proxy_cost_ns / packets),
        "core.pipeline.samples_per_pkt": stats.samples / packets,
        "core.analytics.add_ns_per_sample":
            tracer.total_ns("core.analytics.add") / samples,
        "core.analytics.purges": stats.analytics_purges,
        "core.analytics.windows_closed":
            getattr(dart.analytics, "windows_closed", 0),
        "core.analytics.flush_ms":
            tracer.total_ns("core.analytics.flush") / 1e6,
        "core.flow.flows_interned": intern_flow.cache_info().currsize,
    }


def decode_layer_metrics(tracer: Tracer, rows: Dict[str, int],
                         packets: int) -> Dict[str, float]:
    return {
        "net.columnar.decode_ns_per_pkt":
            tracer.self_ns("net.columnar.decode") / packets,
        "net.columnar.fallback_row_share":
            rows["fallback"] / max(rows["rows"], 1),
        "net.columnar.skip_rows": rows["skip"],
    }


def engine_layer_metrics(tracer: Tracer, packets: int,
                         samples: int) -> Dict[str, float]:
    chunks = tracer.span("engine.ingest").durations or []
    return {
        "engine.self_ns_per_pkt":
            (tracer.self_ns("engine.ingest") + tracer.self_ns("engine.finish")
             + tracer.self_ns("engine.housekeeping")) / packets,
        "engine.route_ns_per_sample":
            tracer.self_ns("engine.route") / max(samples, 1),
        "engine.chunk_ms_p50": _quantile_ms(chunks),
        "engine.chunk_ms_p90": _quantile_ms(chunks, 0.9),
        "engine.chunks": len(chunks),
    }


def scalar_reference(records, config: DartConfig, analytics=None) -> Outcome:
    """``Dart.process`` per record: the semantics every path must match."""
    dart = Dart(config, analytics=analytics)
    raw = []
    for record in records:
        raw.extend(dart.process(record))
    dart.finalize()
    return Outcome(dart.stats, dart.stats.packets_processed,
                   sorted(map(sample_key, raw)), raw=raw)


class Workload:
    name = ""
    input_kind = "campus"
    #: Tables are large enough that every Dart sample must equal a
    #: tcptrace sample exactly; one that does not fails the run.
    oracle_exact = True

    def build(self, ctx: Context, traced: bool = False):
        raise NotImplementedError

    def run(self, ctx: Context, state) -> None:
        raise NotImplementedError

    def run_traced(self, ctx: Context, state, tracer: Tracer) -> None:
        raise NotImplementedError

    def outcome(self, ctx: Context, state) -> Outcome:
        raise NotImplementedError

    def layer_metrics(self, ctx: Context, state, tracer: Tracer,
                      proxy_cost_ns: float) -> Dict[str, float]:
        raise NotImplementedError

    def reference(self, ctx: Context, records) -> Outcome:
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release what ``build`` made when no pass is run on it."""


@dataclass
class EngineState:
    engine: MonitorEngine
    dart: Dart
    collector: Optional[SampleCollector] = None
    #: Decode row counts, filled by the traced pass.
    rows: Optional[Dict[str, int]] = None


class CampusColumnar(Workload):
    """``dart-replay --fastpath``'s exact path."""

    name = "campus_columnar"
    config = CAMPUS_CONFIG
    #: Whether an export sink collects the sample stream (needed when
    #: the analytics keep windows, not samples).
    collector_sink = False

    def analytics(self):
        return None  # Dart's default: CollectAllAnalytics

    def build(self, ctx: Context, traced: bool = False) -> EngineState:
        engine = MonitorEngine()
        dart = Dart(self.config, analytics=self.analytics())
        collector = SampleCollector() if self.collector_sink else None
        engine.add_monitor(dart, name="dart",
                           sinks=[] if collector is None else [collector])
        return EngineState(engine, dart, collector)

    def run(self, ctx: Context, state: EngineState) -> None:
        engine = state.engine
        frames = iter(read_any_frames(ctx.path))
        while True:
            chunk = list(islice(frames, TRACE_CHUNK))
            if not chunk:
                break
            engine.ingest_wire_chunk(chunk, fastpath=True)
        engine.finish()

    def run_traced(self, ctx: Context, state: EngineState,
                   tracer: Tracer) -> None:
        engine = state.engine
        trace_dart(tracer, state.dart, "process_columns")
        state.rows = trace_columnar_decode(tracer)
        tracer.patch(engine, "ingest_wire_chunk", "engine.ingest", keep=True)
        tracer.patch(engine, "finish", "engine.finish")
        tracer.patch(engine["dart"].router, "route_batch", "engine.route")
        frames = iter(read_any_frames(ctx.path))
        while True:
            with tracer.measure("net.pcap.read"):
                chunk = list(islice(frames, TRACE_CHUNK))
            if not chunk:
                break
            engine.ingest_wire_chunk(chunk, fastpath=True)
        engine.finish()

    def outcome(self, ctx: Context, state: EngineState) -> Outcome:
        samples = (state.collector.samples if state.collector is not None
                   else state.dart.samples)
        return Outcome(state.dart.stats, state.dart.stats.packets_processed,
                       sorted(map(sample_key, samples)))

    def layer_metrics(self, ctx, state, tracer, proxy_cost_ns):
        packets = ctx.packets
        return {
            **dart_layer_metrics(tracer, state.dart, packets, proxy_cost_ns),
            **engine_layer_metrics(tracer, packets,
                                   state.dart.stats.samples),
            **self.decode_metrics(tracer, state, packets),
            "net.pcap.read_ns_per_pkt":
                tracer.self_ns("net.pcap.read") / packets,
        }

    def decode_metrics(self, tracer, state, packets):
        return decode_layer_metrics(tracer, state.rows, packets)

    def reference(self, ctx: Context, records) -> Outcome:
        return scalar_reference(records, self.config, self.analytics())


class CampusObject(CampusColumnar):
    """``dart-replay --no-fastpath``: the same bytes, object decode."""

    name = "campus_object"

    def run(self, ctx: Context, state: EngineState) -> None:
        state.engine.run(read_any_capture(ctx.path))

    def run_traced(self, ctx, state, tracer) -> None:
        from repro.net import pcap

        engine = state.engine
        trace_dart(tracer, state.dart, "process_batch")
        tracer.patch(pcap, "from_wire_bytes", "net.packet.decode")
        tracer.patch(engine, "ingest_chunk", "engine.ingest", keep=True)
        tracer.patch(engine, "finish", "engine.finish")
        tracer.patch(engine["dart"].router, "route_batch", "engine.route")
        # engine.run's own loop, opened up so the read can be timed per
        # chunk and not per record.
        records = iter(read_any_capture(ctx.path))
        while True:
            with tracer.measure("net.pcap.read"):
                chunk = list(islice(records, TRACE_CHUNK))
            if not chunk:
                break
            engine.ingest_chunk(chunk)
        engine.finish()

    def decode_metrics(self, tracer, state, packets):
        return {"net.packet.decode_ns_per_pkt":
                tracer.self_ns("net.packet.decode") / packets}


class IncastPressure(CampusColumnar):
    """Tiny tables under a lossy, reordered incast."""

    name = "incast_pressure"
    input_kind = "incast"
    config = PRESSURE_CONFIG
    #: With tables this small Dart loses retransmission history, so some
    #: of its samples are ones the oracle (rightly) refuses; they lower
    #: ``clean_share`` and do not fail the run.
    oracle_exact = False
    collector_sink = True

    def analytics(self):
        return MinFilterAnalytics(window_samples=8)


@dataclass
class StreamState:
    runner: Any
    engine: MonitorEngine
    dart: Dart
    source: Any
    sink: Any
    checkpoint_path: Path
    report: Any = None
    #: Filled by the traced pass.
    rows: Optional[Dict[str, int]] = None
    checkpoint_bytes: Optional[List[int]] = None


class StreamHistCkpt(Workload):
    """``dart-stream --fastpath`` with histograms, a JSONL sink and a
    checkpoint after every chunk."""

    name = "stream_hist_ckpt"
    #: Far below one chunk's processing time: every chunk checkpoints,
    #: so the count depends only on the input.
    checkpoint_interval_s = 1e-9

    def build(self, ctx: Context, traced: bool = False) -> StreamState:
        from repro.stream import (
            CaptureFileSource,
            ResumableSink,
            StreamRunner,
        )

        analytics = HIST_FACTORY()
        dart = Dart(CAMPUS_CONFIG, analytics=analytics)
        sink = ResumableSink("jsonl", ctx.workdir / "samples.jsonl")
        engine = MonitorEngine()
        engine.add_monitor(dart, name="dart", sinks=[sink])
        source = CaptureFileSource(ctx.path, fastpath=True)
        checkpoint_path = ctx.workdir / "stream.ckpt"
        runner = StreamRunner(
            engine, source, sinks=[sink], analytics=analytics,
            checkpoint_path=str(checkpoint_path),
            checkpoint_interval_s=self.checkpoint_interval_s,
            chunk_size=TRACE_CHUNK,
        )
        return StreamState(runner, engine, dart, source, sink,
                           checkpoint_path)

    def run(self, ctx: Context, state: StreamState) -> None:
        state.report = state.runner.run()

    def run_traced(self, ctx, state, tracer) -> None:
        from repro.stream import runner as runner_module

        engine = state.engine
        trace_dart(tracer, state.dart, "process_columns")
        state.rows = trace_columnar_decode(tracer)
        state.checkpoint_bytes = []
        tracer.patch(engine, "ingest_columns", "engine.ingest", keep=True)
        tracer.patch(engine, "finish", "engine.finish")
        for method in ("flush_routers", "drain_retained"):
            tracer.patch(engine, method, "engine.housekeeping")
        tracer.patch(engine["dart"].router, "route_batch", "engine.route")
        tracer.patch(state.sink, "add", "export.sinks.add")
        tracer.patch(state.sink, "flush", "export.sinks.flush")
        tracer.patch(state.sink, "close", "export.sinks.close")
        tracer.patch(
            runner_module, "write_checkpoint", "stream.checkpoint.write",
            keep=True,
            after=lambda header: state.checkpoint_bytes.append(
                header["payload_len"]),
        )
        # A generator: what matters is the time spent producing chunks.
        chunks = state.source.chunks
        state.source.chunks = lambda max_records: tracer.iterate(
            "stream.sources.chunks", chunks(max_records))
        with tracer.measure("stream.runner.run"):
            state.report = state.runner.run()

    def outcome(self, ctx: Context, state: StreamState) -> Outcome:
        samples = []
        with open(state.sink.path) as stream:
            for line in stream:
                row = json.loads(line)
                samples.append((ipv4_to_int(row["src"]),
                                ipv4_to_int(row["dst"]), row["sport"],
                                row["dport"], row["eack"], row["rtt_ns"],
                                row["ts_ns"]))
        # The side outputs are part of the result: a run that skipped a
        # checkpoint or left an unreadable one did not do the work.
        from repro.stream.checkpoint import read_header

        problems = []
        expected = -(-ctx.packets // TRACE_CHUNK) + 1  # per chunk + final
        if state.report.checkpoints != expected:
            problems.append(f"{state.report.checkpoints} checkpoints, "
                            f"expected {expected}")
        if not read_header(state.checkpoint_path).get("finalized"):
            problems.append("last checkpoint is not the finalized one")
        if state.report.sink_counts[state.sink.path] != len(samples):
            problems.append("sink row count differs from its file")
        stats = state.dart.stats
        return Outcome(stats, stats.packets_processed, sorted(samples),
                       problems=tuple(problems))

    def layer_metrics(self, ctx, state, tracer, proxy_cost_ns):
        packets = ctx.packets
        samples = state.dart.stats.samples
        writes = tracer.span("stream.checkpoint.write").durations or []
        return {
            **dart_layer_metrics(tracer, state.dart, packets, proxy_cost_ns),
            **engine_layer_metrics(tracer, packets, samples),
            **decode_layer_metrics(tracer, state.rows, packets),
            "export.sinks.write_ns_per_sample":
                tracer.self_ns("export.sinks.") / max(samples, 1),
            "export.sinks.bytes_written": os.path.getsize(state.sink.path),
            "stream.sources.chunks_ns_per_pkt":
                tracer.self_ns("stream.sources.") / packets,
            "stream.runner.runner_self_ns_per_pkt":
                tracer.self_ns("stream.runner.run") / packets,
            "stream.checkpoint.write_ms_p50": _quantile_ms(writes),
            "stream.checkpoint.count": len(writes),
            "stream.checkpoint.bytes": sum(state.checkpoint_bytes),
        }

    def reference(self, ctx: Context, records) -> Outcome:
        return scalar_reference(records, CAMPUS_CONFIG, HIST_FACTORY())

    def discard(self, state: StreamState) -> None:
        state.source.close()
        state.sink.close()


class _BusyReportingDart(Dart):
    """A shard's Dart that leaves its process CPU time behind.

    Used only in the traced pass: a forked worker starts with zeroed CPU
    clocks, so ``process_time()`` at finalize is the shard's busy time.
    ``finalize`` is not one of the hooks that turn the columnar path off.
    """

    def __init__(self, config: DartConfig, report_dir: Path) -> None:
        super().__init__(config)
        self._report_dir = report_dir

    def finalize(self, at_ns: Optional[int] = None) -> None:
        super().finalize(at_ns)
        name = multiprocessing.current_process().name  # "dart-shard-N"
        (self._report_dir / f"{name}.busy").write_text(
            repr(time.process_time()))


@dataclass
class ClusterState:
    cluster: Any
    spawn_ms: float
    #: Size of every batch handed to the transport (traced pass only).
    batch_bytes: List[int] = field(default_factory=list)


class Cluster2Shard(Workload):
    """Two process shards fed raw frames over the default transport."""

    name = "cluster_2shard"

    def build(self, ctx: Context, traced: bool = False) -> ClusterState:
        from repro.cluster import ShardedDart

        started = time.perf_counter()
        if traced:
            cluster = ShardedDart(
                shards=SHARDS, parallel="process", fastpath=True,
                monitor_factory=lambda: _BusyReportingDart(CAMPUS_CONFIG,
                                                           ctx.workdir),
            )
        else:
            cluster = ShardedDart(CAMPUS_CONFIG, shards=SHARDS,
                                  parallel="process", fastpath=True)
        return ClusterState(cluster, (time.perf_counter() - started) * 1e3)

    @staticmethod
    def feed(ctx: Context, cluster) -> None:
        process_wire = cluster.process_wire
        for timestamp_ns, ethernet, frame in read_any_frames(ctx.path):
            process_wire(frame, timestamp_ns, linktype_ethernet=ethernet)
        cluster.finalize()

    def run(self, ctx: Context, state: ClusterState) -> None:
        self.feed(ctx, state.cluster)

    def run_traced(self, ctx, state, tracer) -> None:
        from repro.cluster import coordinator, sharding
        from repro.cluster.worker import ProcessWorker
        from repro.net.framing import BatchEncoder

        tracer.patch(sharding, "scan_shard_key", "net.scan.scan")
        cluster = state.cluster
        tracer.patch(BatchEncoder, "add_wire", "net.framing.add_wire")
        tracer.patch(BatchEncoder, "take", "net.framing.take",
                     after=lambda batch: state.batch_bytes.append(len(batch)))
        tracer.patch(ProcessWorker, "submit_bytes", "cluster.transport.send")
        tracer.patch(ProcessWorker, "finish", "cluster.coordinator.wait")
        tracer.patch(coordinator, "merge_results", "cluster.merge.merge")
        tracer.patch(cluster, "finalize", "cluster.coordinator.finalize")
        process_wire = cluster.process_wire
        frames = iter(read_any_frames(ctx.path))
        while True:
            with tracer.measure("net.pcap.read"):
                chunk = list(islice(frames, TRACE_CHUNK))
            if not chunk:
                break
            with tracer.measure("cluster.coordinator.dispatch"):
                for timestamp_ns, ethernet, frame in chunk:
                    process_wire(frame, timestamp_ns,
                                 linktype_ethernet=ethernet)
        cluster.finalize()

    def outcome(self, ctx: Context, state: ClusterState) -> Outcome:
        stats = state.cluster.stats
        return Outcome(stats, stats.packets_processed,
                       sorted(map(sample_key, state.cluster.samples)))

    def layer_metrics(self, ctx, state, tracer, proxy_cost_ns):
        packets = ctx.packets
        batches = max(len(state.batch_bytes), 1)
        shard_packets = [result.packets
                         for result in state.cluster.shard_results]
        metrics = {
            "net.pcap.read_ns_per_pkt":
                tracer.self_ns("net.pcap.read") / packets,
            "net.scan.scan_ns_per_pkt": tracer.self_ns("net.scan.") / packets,
            "net.framing.frame_ns_per_pkt":
                tracer.self_ns("net.framing.") / packets,
            "cluster.transport.send_ns_per_batch":
                tracer.self_ns("cluster.transport.send") / batches,
            "cluster.transport.batches": len(state.batch_bytes),
            "cluster.transport.bytes_moved": sum(state.batch_bytes),
            "cluster.coordinator.dispatch_ns_per_pkt":
                (tracer.self_ns("cluster.coordinator.dispatch")
                 + tracer.self_ns("cluster.coordinator.finalize")) / packets,
            "cluster.coordinator.finalize_wait_ms":
                tracer.self_ns("cluster.coordinator.wait") / 1e6,
            "cluster.coordinator.spawn_ms": state.spawn_ms,
            "cluster.worker.shard_skew":
                max(shard_packets) / statistics.fmean(shard_packets),
            "cluster.merge.merge_ms":
                tracer.self_ns("cluster.merge.merge") / 1e6,
        }
        for shard in range(SHARDS):
            report = ctx.workdir / f"dart-shard-{shard}.busy"
            metrics[f"cluster.worker.busy_s_shard{shard}"] = float(
                report.read_text())
        return metrics

    def reference(self, ctx: Context, records) -> Outcome:
        from repro.cluster import ShardedDart

        serial = ShardedDart(CAMPUS_CONFIG, shards=SHARDS, parallel="serial")
        self.feed(ctx, serial)
        raw = serial.samples
        return Outcome(serial.stats, serial.stats.packets_processed,
                       sorted(map(sample_key, raw)), raw=raw)

    def discard(self, state: ClusterState) -> None:
        state.cluster.finalize()  # the public way to stop the shard workers


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (CampusColumnar(), CampusObject(), IncastPressure(),
                     StreamHistCkpt(), Cluster2Shard())
}

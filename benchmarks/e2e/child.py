"""The measuring process: one workload, one fresh interpreter.

``run.py`` starts this file once per workload (so ``ru_maxrss`` and the
``intern_flow`` table belong to that workload alone) and several more
times as a *set-up probe*, which only imports and builds.  It is given
a JSON spec on the command line and prints one JSON object as the last
line of its standard output.

Order inside a measuring run matters for ``peak_rss_mb``: the timed
passes come first and the high-water mark is read straight after them;
only then are the packet records loaded for the scalar reference and
the tcptrace oracle, whose memory is the checker's and not the
program's.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

_STARTED = time.perf_counter()  # before any `repro` import: set-up starts here


def cpu_seconds() -> float:
    """CPU of this process plus every shard worker it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped shard worker.

    Own peak from ``VmHWM``, not ``ru_maxrss``: Linux folds the resident
    set of the process that called ``exec`` into the new program's
    ``ru_maxrss``, so that figure would be the parent harness's size
    whenever the parent (which generated the trace) is the larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            own_kib = int(line.split()[1])
            break
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, workers_kib) / 1024.0


def digest(samples) -> str:
    return hashlib.sha256(repr(samples).encode()).hexdigest()


def summarize(outcome) -> dict:
    """What the checker keeps of a pass (a digest, not the sample list,
    so twenty passes do not grow the resident set being measured)."""
    return {"stats": outcome.stats, "processed": outcome.processed,
            "samples": len(outcome.samples),
            "sample_digest": digest(outcome.samples),
            "problems": outcome.problems}


def untraced_pass(workload, ctx, inject):
    """Build, then time one pass; returns what the checker needs of it."""
    gc.collect()
    build_started = time.perf_counter()
    state = workload.build(ctx)
    build_s = time.perf_counter() - build_started
    cpu_started = cpu_seconds()
    started = time.perf_counter()
    workload.run(ctx, state)
    wall_s = time.perf_counter() - started
    cpu_s = cpu_seconds() - cpu_started
    outcome = workload.outcome(ctx, state)
    if inject == "drop_sample":
        del outcome.samples[len(outcome.samples) // 2]
    return {"wall_s": wall_s, "cpu_s": cpu_s, "build_s": build_s,
            **summarize(outcome)}


def traced_pass(workload, ctx, proxy_cost_ns):
    from tracing import Tracer

    gc.collect()
    state = workload.build(ctx, traced=True)
    tracer = Tracer()
    started = time.perf_counter_ns()
    try:
        workload.run_traced(ctx, state, tracer)
    finally:
        elapsed_ns = time.perf_counter_ns() - started
        tracer.restore()
    outcome = workload.outcome(ctx, state)
    metrics = workload.layer_metrics(ctx, state, tracer, proxy_cost_ns)
    metrics["harness.unaccounted_share"] = (
        1.0 - tracer.root.child_ns / elapsed_ns)
    budget = {name: span.self_ns / ctx.packets
              for name, span in tracer.spans.items()}
    return {"wall_s": elapsed_ns / 1e9, "metrics": metrics, "budget": budget,
            **summarize(outcome)}


def corrupt_one_frame(path: str, workdir: Path) -> str:
    """A copy of the capture whose middle frame no longer says TCP."""
    from repro.net.pcapng import read_any_frames

    data = bytearray(Path(path).read_bytes())
    offset = 24  # pcap global header
    frames = list(read_any_frames(path))
    for _, _, frame in frames[:len(frames) // 2]:
        offset += 16 + len(frame)
    data[offset + 16 + 14 + 9] = 17  # IPv4 protocol byte: TCP -> UDP
    corrupted = workdir / "corrupted.pcap"
    corrupted.write_bytes(data)
    return str(corrupted)


def intern_cost_ns_per_pkt(records) -> float:
    """``intern_flow`` timed directly over the tuples a pass interns.

    The kernel calls the C-level cache inline, where a wrapper would
    cost more than the call, so this is a stand-alone replay from a
    cleared cache; it is part of ``core.pipeline`` kernel self time,
    not an addition to it.
    """
    from repro.core.flow import intern_flow
    from repro.net import tcp

    data_flags = tcp.FLAG_SYN | tcp.FLAG_FIN
    tuples = []
    for r in records:
        if r.payload_len or r.flags & data_flags:
            tuples.append((r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.ipv6))
        if r.flags & tcp.FLAG_ACK:
            tuples.append((r.dst_ip, r.src_ip, r.dst_port, r.src_port, r.ipv6))
    clock = time.perf_counter_ns
    started = clock()
    for _ in tuples:
        pass
    loop_ns = clock() - started
    intern_flow.cache_clear()
    started = clock()
    for key in tuples:
        intern_flow(*key)
    return max(0, clock() - started - loop_ns) / len(records)


def check(workload, ctx, passes, records):
    """Compare every pass with the reference, and Dart with the oracle."""
    from repro.analysis.accuracy import compare_samples
    from repro.engine import MonitorOptions, create

    reference = workload.reference(ctx, records)
    reference_digest = digest(reference.samples)
    oracle = create("tcptrace", MonitorOptions(track_handshake=False))
    oracle.process_batch(records)
    oracle.finalize()
    accuracy = compare_samples(reference.raw, oracle.samples)
    oracle_keys = {(s.flow, s.eack, s.rtt_ns) for s in oracle.samples}
    unpaired = sum(1 for s in reference.raw
                   if (s.flow, s.eack, s.rtt_ns) not in oracle_keys)
    offered = ctx.packets
    failed = 0
    notes = []
    if workload.oracle_exact and unpaired:
        notes.append(f"{unpaired} Dart samples have no equal tcptrace sample")
    for index, result in enumerate(passes):
        if (result["stats"] != reference.stats
                or result["sample_digest"] != reference_digest
                or result["problems"]):
            # Wrong counters, samples or side outputs: nothing this pass
            # reported can be trusted, so all of its packets count as failed.
            failed += offered
            notes.append(f"pass {index}: diverges from the reference "
                         f"{list(result['problems'])}")
        else:
            # Every input frame is a TCP packet, so each must be counted;
            # a pass equal to the reference emitted its unpaired samples.
            failed += min(offered, max(0, offered - result["processed"])
                          + (unpaired if workload.oracle_exact else 0))
    attempted = offered * len(passes)
    # The yield reported is the passes' own: what they emitted over what
    # the oracle did.  It equals the reference's to the last digit unless
    # a pass diverged, and then that pass has failed above.
    emitted = statistics.median(result["samples"] for result in passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": min(1.0, (failed + (0 if workload.oracle_exact
                                            else unpaired * len(passes)))
                            / attempted),
        "sample_yield":
            accuracy.sample_ratio * emitted / len(reference.raw),
        "dart_samples": accuracy.candidate_count,
        "oracle_samples": accuracy.reference_count,
        "unpaired_samples": unpaired,
        "notes": notes,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[spec["workload"]]
    with tempfile.TemporaryDirectory(dir=spec["cache"],
                                     prefix="work-") as workdir:
        ctx = Context(spec["path"], spec["packets"], Path(workdir))
        if spec["mode"] == "probe":
            state = workload.build(ctx)
            setup_s = time.perf_counter() - _STARTED
            workload.discard(state)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, ctx, spec)
    print(json.dumps(result))
    return 0


def measure(workload, ctx, spec):
    from repro.net.pcapng import read_any_capture

    import_s = time.perf_counter() - _STARTED
    inject = spec.get("inject")
    reference_ctx = ctx
    if inject == "skip_checkpoint":
        # Only the run's end checkpoints; the outputs checker must notice.
        workload.checkpoint_interval_s = 3600.0
    if inject == "corrupt_frame":
        # The reference keeps the pristine bytes; the passes get the copy.
        ctx = dataclasses.replace(
            ctx, path=corrupt_one_frame(ctx.path, ctx.workdir))
    seconds = spec["seconds"]
    trace = spec["trace"]
    untraced_budget = seconds / 3 if trace else seconds

    warmup = untraced_pass(workload, ctx, None)
    passes = []
    phase_started = time.perf_counter()
    while (len(passes) < spec["min_passes"]
           or time.perf_counter() - phase_started < untraced_budget):
        passes.append(untraced_pass(workload, ctx, inject))
    peak_rss = peak_rss_mib()

    traced = []
    proxy_cost_ns = 0.0
    if trace:
        from tracing import null_proxy_cost_ns

        proxy_cost_ns = null_proxy_cost_ns()
        phase_started = time.perf_counter()
        while (len(traced) < 3
               or time.perf_counter() - phase_started < seconds * 2 / 3):
            traced.append(traced_pass(workload, ctx, proxy_cost_ns))

    records = list(read_any_capture(reference_ctx.path))
    verdict = check(workload, reference_ctx, passes + traced, records)

    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    packets = ctx.packets
    result = {
        "workload": workload.name,
        "packets": packets,
        "passes": len(passes),
        "pass_wall_quartiles_s": statistics.quantiles(walls, n=4),
        "pass_cpu_quartiles_s": statistics.quantiles(cpus, n=4),
        "build_s_median": statistics.median(p["build_s"] for p in passes),
        "import_s": import_s,
        "peak_rss_mb": peak_rss,
        "warmup_pass_s": warmup["wall_s"],
        **verdict,
    }
    if trace:
        names = sorted({name for t in traced for name in t["metrics"]})
        layers = {name: statistics.median(t["metrics"].get(name, 0.0)
                                          for t in traced) for name in names}
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        layers["harness.trace_overhead_share"] = (
            traced_wall / statistics.median(walls) - 1.0)
        layers["harness.proxy_cost_ns"] = proxy_cost_ns
        layers["harness.warmup_pass_s"] = warmup["wall_s"]
        layers["net.pcap.bytes_per_pkt"] = (
            (Path(ctx.path).stat().st_size - 24) / packets - 16)
        if "core.flow.flows_interned" in layers:  # the kernel ran in-process
            layers["core.flow.intern_ns_per_pkt"] = (
                intern_cost_ns_per_pkt(records))
        # The printed budget is one traced pass's (the median one by
        # wall time), so its parts sum to that pass exactly.
        typical = sorted(traced, key=lambda t: t["wall_s"])[len(traced) // 2]
        result.update({
            "traced_passes": len(traced),
            "layers": layers,
            "budget_pass_ns_per_pkt": typical["wall_s"] * 1e9 / packets,
            "budget_unaccounted_share":
                typical["metrics"]["harness.unaccounted_share"],
            "budget_ns_per_pkt": typical["budget"],
        })
    return result


if __name__ == "__main__":
    sys.exit(main())

"""Cluster scaling: packets/sec at 1/2/4/8 flow shards.

Not a paper figure — the paper gets parallelism from hardware
pipelines; this bench measures the software analogue, the
:mod:`repro.cluster` subsystem, on the campus trace:

* throughput at 1 (serial Dart), 2, 4, and 8 process shards — the
  median of ``REPEATS`` passes per point, min–max beside it, after one
  discarded cluster pass (the first process-mode run of a session is
  2–3x slow: a single-shot table publishes the order the points ran in);
* the coordinator-side dispatch ceiling of :class:`ByteBatchDispatcher`,
  the one dispatcher every mode runs;
* an equivalence check — the sharded run must produce exactly the
  serial run's RTT-sample multiset and summed pipeline counters.

Speedup depends on the host: the dispatch side sustains several hundred
thousand pkts/s (measured here as ``dispatch ceiling``), so with ≥ 4
usable cores the 4-shard point lands well above 2× serial; on a 1-core
CI box process mode *loses* to serial (everything serializes, plus IPC)
— the report records the core count next to the numbers for that
reason.
"""

import os
import statistics
import time
from collections import Counter

from repro.cluster import ByteBatchDispatcher, ShardedDart
from repro.core import Dart, DartConfig, ideal_config
from repro.engine import MonitorEngine

CONFIG = DartConfig(rt_slots=1 << 16, pt_slots=1 << 12,
                    max_recirculations=1)

SHARD_POINTS = (2, 4, 8)

#: Timed passes per point; the report quotes their median and range.
REPEATS = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _throughput(records, monitor) -> float:
    engine = MonitorEngine()
    engine.add_monitor(monitor)
    return engine.run(records).records_per_second


def _dispatch_ceiling(records, shards: int) -> float:
    """Max rate the coordinator can route and frame records: shard hash
    + struct-pack framing per record, emit discarded."""
    dispatcher = ByteBatchDispatcher(shards, lambda shard, payload: None)
    start = time.perf_counter()
    for record in records:
        dispatcher.dispatch(record)
    dispatcher.flush()
    return len(records) / (time.perf_counter() - start)


def run_scaling(campus_trace, external_leg):
    records = campus_trace.records

    def monitor(shards):
        if shards == 1:
            return Dart(CONFIG, leg_filter=external_leg())
        return ShardedDart(CONFIG, shards=shards, parallel="process",
                           leg_filter=external_leg())

    _throughput(records, monitor(SHARD_POINTS[0]))  # warm-up, discarded
    points = (1,) + SHARD_POINTS
    runs = {shards: [] for shards in points}
    for _ in range(REPEATS):
        for shards in points:
            runs[shards].append(_throughput(records, monitor(shards)))
    rows = [
        ("serial" if shards == 1 else "process", shards,
         statistics.median(pps), min(pps), max(pps))
        for shards, pps in runs.items()
    ]
    ceiling = _dispatch_ceiling(records, 4)
    return rows, _equivalence(records, external_leg), ceiling


def _equivalence(records, leg):
    """Sharded multiset / summed-counter equivalence vs the serial run.

    Uses unlimited tables: with no eviction pressure, flow-consistent
    sharding must reproduce the serial sample multiset exactly.  (With
    finite per-shard tables, collision pressure legitimately differs —
    each shard has its own tables — so throughput above is measured at
    the constrained operating point but equivalence is checked here.)
    """
    serial = Dart(ideal_config(), leg_filter=leg())
    cluster = ShardedDart(ideal_config(), shards=4, parallel="process",
                          leg_filter=leg())
    for monitor in (serial, cluster):
        monitor.process_batch(records)
        monitor.finalize()
    sample_match = Counter(cluster.samples) == Counter(serial.samples)
    merged, ref = cluster.stats, serial.stats
    counter_match = (
        merged.packets_processed == ref.packets_processed
        and merged.seq_packets == ref.seq_packets
        and merged.ack_packets == ref.ack_packets
        and merged.tracked_inserts == ref.tracked_inserts
        and merged.samples == ref.samples
        and merged.seq_verdicts == ref.seq_verdicts
        and merged.ack_verdicts == ref.ack_verdicts
    )
    return sample_match, counter_match


def test_cluster_scaling(benchmark, campus_trace, external_leg,
                         report_sink):
    rows, (sample_match, counter_match), ceiling = (
        benchmark.pedantic(
            run_scaling, args=(campus_trace, external_leg),
            rounds=1, iterations=1,
        )
    )
    benchmark.extra_info["packets"] = campus_trace.packets
    serial_pps = rows[0][2]
    lines = [
        f"cluster scaling, campus trace "
        f"({campus_trace.packets} packets, {_usable_cores()} usable cores; "
        f"median of {REPEATS} after one discarded pass)",
        "",
        f"{'mode':>9}  {'shards':>6}  {'pkts/s':>12}  {'vs serial':>9}  "
        f"{'min - max':>21}",
    ]
    for mode, shards, pps, low, high in rows:
        lines.append(
            f"{mode:>9}  {shards:>6}  {pps:>12,.0f}  "
            f"{pps / serial_pps:>8.2f}x  "
            + f"{low:,.0f} - {high:,.0f}".rjust(21)
        )
    lines += [
        "",
        f"dispatch ceiling (4 shards, no workers): {ceiling:,.0f} pkts/s",
        f"sample multiset == serial: {sample_match}, "
        f"summed counters == serial: {counter_match}",
    ]
    report_sink("\n".join(lines))
    # Correctness is host-independent and asserted hard; the speedup is
    # a property of the bench host and is reported, not asserted, so the
    # bench stays meaningful on single-core CI runners.
    assert sample_match, "sharded sample multiset diverged from serial"
    assert counter_match, "summed shard counters diverged from serial"

#!/usr/bin/env python
"""Fleet smoke: 3 agents + 1 collector, one SIGKILLed mid-run, exact merge.

The CI fleet-smoke job runs the multi-vantage-point story against real
processes:

1. a campus trace is partitioned into three capture files by canonical
   flow (each connection's packets all land at one "tap"), so the
   merged fleet view is *exactly comparable* to a single-process
   reference over the full trace — Dart's per-flow state makes the
   partitioned stats sum to the reference in unlimited-table mode;
2. a ``dart-collector`` listens on an ephemeral port and serves HTTP;
3. agents 1 and 2 run their captures one-shot; agent 3 tails a growing
   capture while a feeder thread appends, checkpointing on a short
   interval — and is **SIGKILLed** (no graceful flush) mid-run;
4. agent 3 restarts with ``--resume`` and drains the rest;
5. the collector exits once all three agents sent final deltas, and
   writes the merged summary.

Every agent runs the per-/24 distribution stage (``--hist-bins 32``),
so its registers ride each delta, through the kill and the resume.

Pass criteria (exit 0): merged ``DartStats`` are **byte-identical**
(as canonical JSON) to the single-process reference, so are the merged
distribution's sample count and quantiles, merged exactly-once sample
totals match, the merged window multiset matches (modulo flush
timestamps, which depend on per-tap end time), zero windows lost, and
zero samples double-counted despite the kill.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
import zlib
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import DartConfig  # noqa: E402
from repro.core.analytics import DstPrefixKey, MinFilterAnalytics  # noqa: E402
from repro.core.hist import DistributionAnalytics, HistogramSpec  # noqa: E402
from repro.core.flow import flow_of  # noqa: E402
from repro.engine import MonitorEngine, MonitorOptions, create  # noqa: E402
from repro.fleet import FlowCountTap, stats_to_wire  # noqa: E402
from repro.net.pcap import append_packets, write_packets  # noqa: E402
from repro.stream import CheckpointError, read_header  # noqa: E402
from repro.traces import CampusTraceConfig, generate_campus_trace  # noqa: E402

DEFAULT_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "900"))
SEED = 31
TAPS = 3
WINDOW_SAMPLES = 8
HIST_BINS = 32
DEADLINE_S = 120.0


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def agent_cli(*args: object) -> List[str]:
    return [sys.executable, "-m", "repro.cli.agent", *map(str, args)]


def collector_cli(*args: object) -> List[str]:
    return [sys.executable, "-m", "repro.cli.collector", *map(str, args)]


def wait_until(predicate, what: str, deadline_s: float = DEADLINE_S) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise TimeoutError(f"timed out waiting for {what}")


def read_port(path: Path) -> int:
    return int(path.read_text().strip())


def http_json(port: int, route: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{route}", timeout=5
    ) as response:
        return json.loads(response.read())


def partition_by_flow(records) -> List[List]:
    """Deal records into TAPS captures, whole flows only (canonical key,
    so both directions of a connection land at the same tap)."""
    taps: List[List] = [[] for _ in range(TAPS)]
    for record in records:
        key = flow_of(record).canonical()
        taps[zlib.crc32(key.key_bytes()) % TAPS].append(record)
    return taps


def reference_run(records) -> Dict:
    """Single-process ground truth over the full, time-ordered trace."""
    # What ``--hist-bins`` builds: the default per-/24 stage around the
    # window filter.
    analytics = DistributionAnalytics(
        HistogramSpec.log_bins(HIST_BINS), key_fn=DstPrefixKey(24),
        inner=MinFilterAnalytics(window_samples=WINDOW_SAMPLES),
    )
    monitor = create("dart", MonitorOptions(
        config=DartConfig(), analytics=analytics,
    ))
    engine = MonitorEngine()
    # Count samples exactly the way each agent does, so the comparison
    # is tap-for-tap symmetric.
    flow_tap = FlowCountTap()
    engine.add_monitor(monitor, name="dart", sinks=[flow_tap])
    engine.run(records)
    return {
        "stats": stats_to_wire(monitor.stats),
        "samples": flow_tap.samples,
        "windows": analytics.drain_windows(),
        "distribution": {
            "samples": analytics.count,
            "quantiles_ns": {f"p{q:g}": rtt_ns for q, rtt_ns
                             in analytics.percentiles().items()},
        },
    }


def window_multiset(windows) -> List:
    """Comparable window identity, flush-timestamp-independent.

    Completed windows close on their 8th sample (trace-timestamped,
    identical everywhere); *flushed* partials are stamped with the
    finalize time, which legitimately differs between a per-tap run and
    the full-trace reference — so ``closed_at_ns`` stays out of the
    comparison.
    """
    rows = []
    for w in windows:
        key = w.key.describe() if hasattr(w.key, "describe") else str(w.key)
        rows.append((key, w.window_index, w.min_rtt_ns, w.sample_count))
    return sorted(rows)


def summary_window_multiset(windows) -> List:
    from repro.fleet import window_from_wire  # local: after sys.path fix

    return window_multiset([window_from_wire(w) for w in windows])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill/resume chaos test for the dart fleet.",
    )
    parser.add_argument("--connections", type=int,
                        default=DEFAULT_CONNECTIONS,
                        help="campus trace size (default: "
                             "$REPRO_BENCH_CONNECTIONS or 900)")
    parser.add_argument("--workdir", default=None,
                        help="working directory (default: a tempdir)")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="fleet-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)

    print(f"generating trace ({args.connections} connections, seed {SEED})"
          "...", file=sys.stderr)
    records = generate_campus_trace(
        CampusTraceConfig(connections=args.connections, seed=SEED)
    ).records
    taps = partition_by_flow(records)
    print(f"trace: {len(records)} records across taps "
          f"{[len(t) for t in taps]}", file=sys.stderr)

    reference = reference_run(records)

    pcaps = []
    for index, tap_records in enumerate(taps):
        pcap = workdir / f"tap{index}.pcap"
        write_packets(pcap, tap_records)
        pcaps.append(pcap)

    failures: List[str] = []
    port_file = workdir / "wire.port"
    http_port_file = workdir / "http.port"
    summary_path = workdir / "merged.json"
    collector = subprocess.Popen(
        collector_cli("--listen", "127.0.0.1:0", "--port-file", port_file,
                      "--http", "127.0.0.1:0",
                      "--http-port-file", http_port_file,
                      "--expect-agents", TAPS,
                      "--summary-json", summary_path,
                      "--summary-windows"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=cli_env(),
    )
    agents: List[subprocess.Popen] = []
    daemon: Optional[subprocess.Popen] = None
    try:
        wait_until(port_file.exists, "collector port file")
        wait_until(http_port_file.exists, "collector http port file")
        wire = f"127.0.0.1:{read_port(port_file)}"
        http_port = read_port(http_port_file)

        # Agents 0 and 1: one-shot over their whole captures.
        for index in (0, 1):
            agents.append(subprocess.Popen(
                agent_cli(pcaps[index], "--collector", wire,
                          "--agent-id", f"tap{index}",
                          "--window-samples", WINDOW_SAMPLES,
                          "--hist-bins", HIST_BINS,
                          "--push-interval", "0.2"),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=cli_env(),
            ))

        # Agent 2: tails a growing capture, checkpointing fast, and gets
        # SIGKILLed mid-run — no graceful flush, no bye.
        tap2 = taps[2]
        third = len(tap2) // 3
        live = workdir / "tap2.pcap"
        write_packets(live, tap2[:third])
        ckpt = workdir / "tap2.ckpt"
        daemon = subprocess.Popen(
            agent_cli(live, "--collector", wire, "--agent-id", "tap2",
                      "--follow", "--poll-interval", "0.05",
                      "--window-samples", WINDOW_SAMPLES,
                      "--hist-bins", HIST_BINS,
                      "--push-interval", "0.2",
                      "--checkpoint", ckpt, "--checkpoint-interval", "0.3"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=cli_env(),
        )

        def feed() -> None:
            middle = tap2[third : 2 * third]
            step = max(1, len(middle) // 4)
            for start in range(0, len(middle), step):
                append_packets(live, middle[start : start + step])
                time.sleep(0.1)

        feeder = threading.Thread(target=feed)
        feeder.start()
        feeder.join(timeout=DEADLINE_S)

        def caught_up() -> bool:
            try:
                header = read_header(ckpt)
            except (CheckpointError, OSError):
                return False
            if header["source"]["offset"] != live.stat().st_size:
                return False
            agents_view = http_json(http_port, "/agents")
            return agents_view.get("tap2", {}).get("deltas", 0) >= 1

        wait_until(caught_up, "agent tap2 to checkpoint and push a delta")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=DEADLINE_S)
        daemon = None

        # The rest of the capture lands while the agent is dead.
        append_packets(live, tap2[2 * third:])

        resumed = subprocess.run(
            agent_cli(live, "--collector", wire, "--agent-id", "tap2",
                      "--follow", "--poll-interval", "0.05",
                      "--idle-timeout", "1.0",
                      "--push-interval", "0.2",
                      "--checkpoint", ckpt, "--resume"),
            env=cli_env(), capture_output=True, text=True,
            timeout=DEADLINE_S,
        )
        if resumed.returncode != 0:
            failures.append(f"resumed agent exited {resumed.returncode}:\n"
                            f"{resumed.stderr}")

        for index, agent in enumerate(agents):
            stdout, stderr = agent.communicate(timeout=DEADLINE_S)
            if agent.returncode != 0:
                failures.append(f"agent tap{index} exited "
                                f"{agent.returncode}:\n{stderr}")
        agents = []

        stdout, stderr = collector.communicate(timeout=DEADLINE_S)
        if collector.returncode != 0:
            failures.append(f"collector exited {collector.returncode}:\n"
                            f"{stderr}")
    finally:
        for proc in [collector, daemon, *agents]:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.communicate()

    if not failures:
        summary = json.loads(summary_path.read_text())
        merged_stats = summary["stats"].get("dart")
        ref_dump = json.dumps(reference["stats"], sort_keys=True)
        got_dump = json.dumps(merged_stats, sort_keys=True)
        if got_dump != ref_dump:
            failures.append(
                "merged DartStats differ from the single-process "
                f"reference:\n  ref: {ref_dump}\n  got: {got_dump}"
            )
        ref_dist = json.dumps(reference["distribution"], sort_keys=True)
        got_dist = json.dumps(summary["distribution"].get("dart"),
                              sort_keys=True)
        if got_dist != ref_dist:
            failures.append(
                "merged distribution differs from the single-process "
                f"reference:\n  ref: {ref_dist}\n  got: {got_dist}"
            )
        flows = summary["flows"]
        if flows["exactly_once_samples"] != reference["samples"]:
            failures.append(
                f"merged sample total {flows['exactly_once_samples']} != "
                f"reference {reference['samples']}"
            )
        if flows["attributed_samples"] != flows["exactly_once_samples"]:
            failures.append(
                "double-counting: attributed "
                f"{flows['attributed_samples']} != exactly-once "
                f"{flows['exactly_once_samples']} on disjoint taps"
            )
        if summary["windows_lost"] != 0:
            failures.append(
                f"{summary['windows_lost']} window(s) lost despite resume"
            )
        ref_windows = window_multiset(reference["windows"])
        got_windows = summary_window_multiset(summary["window_list"])
        if got_windows != ref_windows:
            failures.append(
                f"merged window multiset ({len(got_windows)}) differs "
                f"from the reference ({len(ref_windows)})"
            )
        agents_view = summary["agents"]
        if len(agents_view) != TAPS:
            failures.append(f"expected {TAPS} agents, saw "
                            f"{sorted(agents_view)}")

    print(f"fleet-smoke: {len(records)} records, {TAPS} taps, one agent "
          "SIGKILLed and resumed", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"fleet-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("fleet-smoke: ok (merged stats and distribution identical to "
          "the single-process reference; zero double-counting)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

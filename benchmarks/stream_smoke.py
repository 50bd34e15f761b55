#!/usr/bin/env python
"""Stream smoke: the dart-stream daemon, killed and resumed, loses nothing.

The CI stream-smoke job runs the full continuous-operation story
against real subprocesses:

1. a **reference** ``dart-stream`` run over the complete capture
   (one-shot, uninterrupted);
2. a **daemon** tailing a growing capture (``--follow``) while a
   background thread appends packets in lumps, checkpointing on a
   short interval;
3. ``SIGTERM`` mid-run — the daemon must flush, checkpoint, and exit 0;
4. a **fresh process** resuming from the checkpoint (``--resume``)
   that drains the rest of the capture and finalizes.

5. a **quiet ``--follow`` leg**, in process: a tail that finds only a
   handful of frames per poll (a quiet link, where numpy's per-call
   overhead is not amortised) runs through the columnar decoder and
   the per-frame one, must produce the same samples, and reports each
   decoder's ingest cost per packet.

With numpy installed the daemon of steps 2-4 decodes its tail columnar
(the engine picks the decoder), so the kill/resume crosses processes on
that path; without it the same steps cover the per-frame decoder and
step 5 measures only that one.

Every ``dart-stream`` leg runs with ``--hist-bins 16``, so the
distribution stage is checkpointed, killed and resumed too.

Pass criteria (exit 0): both processes exit cleanly, the checkpoint is
non-finalized after the kill and finalized after the resume, the
sample CSV, sample JSONL and window JSONL from the interrupted pair
are **byte-identical** to the reference (the resumed process continues
all three from the checkpoint) — zero samples lost or duplicated
across the process boundary — the resumed run prints the reference's
``distribution:`` line, and the quiet tail's decoders agree.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import MonitorEngine, MonitorOptions, create  # noqa: E402
from repro.net.columnar import HAVE_NUMPY  # noqa: E402
from repro.net.pcap import append_packets, write_packets  # noqa: E402
from repro.stream import (  # noqa: E402
    CheckpointError,
    TailCaptureSource,
    read_header,
)
from repro.traces import CampusTraceConfig, generate_campus_trace  # noqa: E402

DEFAULT_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "1500"))
SEED = 23
DEADLINE_S = 120.0
#: The quiet leg: frames the tail finds per poll, and packets followed.
QUIET_FRAMES_PER_POLL = 4
QUIET_PACKETS = 4000
#: Every dart-stream leg runs the distribution stage, so its registers
#: cross the kill/resume boundary inside the checkpoint.
HIST = ("--hist-bins", "16")


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def stream_cli(*args: object) -> List[str]:
    return [sys.executable, "-m", "repro.cli.stream", *map(str, args)]


def distribution_line(stdout: str) -> Optional[str]:
    """The ``distribution:`` summary line a dart-stream run printed."""
    for line in stdout.splitlines():
        if line.strip().startswith("distribution:"):
            return line.strip()
    return None


def wait_until(predicate, what: str, deadline_s: float = DEADLINE_S) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise TimeoutError(f"timed out waiting for {what}")


def checkpoint_caught_up(ckpt: Path, capture: Path):
    def check() -> bool:
        try:
            header = read_header(ckpt)
        except (CheckpointError, OSError):
            return False
        return header["source"]["offset"] == capture.stat().st_size
    return check


def follow_quiet_tail(records, path: Path, fastpath: bool):
    """Follow a capture that grows a few frames per poll; returns the
    samples and the ingest (decode + monitor) cost in ns per packet."""
    write_packets(path, [])
    pending = iter(range(0, len(records), QUIET_FRAMES_PER_POLL))

    def grow(seconds: float) -> None:
        start = next(pending, None)
        if start is not None:
            append_packets(path, records[start:start + QUIET_FRAMES_PER_POLL])

    monitor = create("dart", MonitorOptions())
    engine = MonitorEngine()
    engine.add_monitor(monitor, name="dart")
    source = TailCaptureSource(path, poll_interval_s=0.01,
                               idle_timeout_s=0.02, sleep=grow)
    ingest_ns = 0
    try:
        for chunk in source.chunks(8192):
            started = time.perf_counter_ns()
            engine.ingest_wire_chunk(chunk, fastpath=fastpath)
            ingest_ns += time.perf_counter_ns() - started
    finally:
        source.close()
    engine.finish()
    return list(monitor.samples), ingest_ns / max(engine.records, 1)


def quiet_follow_leg(records, workdir: Path, failures: List[str]) -> None:
    records = records[:QUIET_PACKETS]
    object_samples, object_ns = follow_quiet_tail(
        records, workdir / "quiet-object.pcap", fastpath=False)
    line = (f"stream-smoke: quiet tail ({QUIET_FRAMES_PER_POLL} frames/poll, "
            f"{len(records)} packets): per-frame decode "
            f"{object_ns:,.0f} ns/pkt")
    if HAVE_NUMPY:
        samples, columnar_ns = follow_quiet_tail(
            records, workdir / "quiet-columnar.pcap", fastpath=True)
        line += f", columnar decode {columnar_ns:,.0f} ns/pkt"
        if samples != object_samples:
            failures.append("quiet tail: columnar and per-frame decoders "
                            "disagree on the samples")
    else:
        line += " (numpy not installed: columnar decoder not measured)"
    print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill/resume smoke test for the dart-stream daemon.",
    )
    parser.add_argument("--connections", type=int,
                        default=DEFAULT_CONNECTIONS,
                        help="campus trace size (default: "
                             "$REPRO_BENCH_CONNECTIONS or 1500)")
    parser.add_argument("--workdir", default=None,
                        help="working directory (default: a tempdir)")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="stream-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)

    print(f"generating trace ({args.connections} connections, seed {SEED})"
          "...", file=sys.stderr)
    records = generate_campus_trace(
        CampusTraceConfig(connections=args.connections, seed=SEED)
    ).records
    print(f"trace: {len(records)} records", file=sys.stderr)

    full = workdir / "full.pcap"
    write_packets(full, records)

    failures: List[str] = []

    # 1. Uninterrupted reference.
    ref_csv = workdir / "ref.csv"
    ref_jsonl = workdir / "ref.jsonl"
    ref_win = workdir / "ref-win.jsonl"
    reference = subprocess.run(
        stream_cli(full, "--csv", ref_csv, "--jsonl", ref_jsonl, *HIST,
                   "--window-samples", "8", "--windows", ref_win),
        env=cli_env(), capture_output=True, text=True, timeout=DEADLINE_S,
    )
    if reference.returncode != 0:
        print(f"stream-smoke: FAIL: reference run exited "
              f"{reference.returncode}:\n{reference.stderr}",
              file=sys.stderr)
        return 1

    # 2. The daemon tails a growing capture.
    third = len(records) // 3
    live = workdir / "live.pcap"
    write_packets(live, records[:third])
    ckpt = workdir / "state.ckpt"
    out_csv = workdir / "out.csv"
    out_jsonl = workdir / "out.jsonl"
    out_win = workdir / "out-win.jsonl"
    daemon = subprocess.Popen(
        stream_cli(live, "--follow", "--poll-interval", "0.05",
                   "--checkpoint", ckpt, "--checkpoint-interval", "0.5",
                   "--csv", out_csv, "--jsonl", out_jsonl, *HIST,
                   "--window-samples", "8", "--windows", out_win),
        env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )

    def feed() -> None:
        # Lumpy growth while the daemon watches, like a capture being
        # written by tcpdump.
        middle = records[third : 2 * third]
        step = max(1, len(middle) // 5)
        for start in range(0, len(middle), step):
            append_packets(live, middle[start : start + step])
            time.sleep(0.15)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        feeder.join(timeout=DEADLINE_S)
        wait_until(checkpoint_caught_up(ckpt, live),
                   "daemon to catch up with the growing capture")
        # 3. Kill it mid-run.
        daemon.send_signal(signal.SIGTERM)
        stdout, stderr = daemon.communicate(timeout=DEADLINE_S)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    if daemon.returncode != 0:
        failures.append(f"daemon exited {daemon.returncode} on SIGTERM:\n"
                        f"{stderr}")
    elif read_header(ckpt)["finalized"]:
        failures.append("checkpoint after SIGTERM is marked finalized")

    # 4. The capture keeps growing, then a fresh process resumes.
    if not failures:
        append_packets(live, records[2 * third:])
        resumed = subprocess.run(
            stream_cli(live, "--follow", "--poll-interval", "0.05",
                       "--idle-timeout", "1.0",
                       "--checkpoint", ckpt, "--resume", *HIST),
            env=cli_env(), capture_output=True, text=True,
            timeout=DEADLINE_S,
        )
        if resumed.returncode != 0:
            failures.append(f"resume exited {resumed.returncode}:\n"
                            f"{resumed.stderr}")
        elif not read_header(ckpt)["finalized"]:
            failures.append("resumed run did not finalize the checkpoint")

    if not failures:
        if out_csv.read_bytes() != ref_csv.read_bytes():
            failures.append("sample CSV differs from the uninterrupted "
                            "reference")
        if out_jsonl.read_bytes() != ref_jsonl.read_bytes():
            failures.append("sample JSONL differs from the uninterrupted "
                            "reference")
        if out_win.read_bytes() != ref_win.read_bytes():
            failures.append("window JSONL differs from the uninterrupted "
                            "reference")
        expected = distribution_line(reference.stdout)
        if expected is None:
            failures.append("reference run printed no distribution line")
        elif distribution_line(resumed.stdout) != expected:
            failures.append(
                "resumed distribution differs from the reference: "
                f"{distribution_line(resumed.stdout)!r} vs {expected!r}")

    # 5. A quiet --follow: a handful of frames per poll, both decoders.
    quiet_follow_leg(records, workdir, failures)

    rows = max(0, len(ref_csv.read_text().splitlines()) - 1)
    print(f"stream-smoke: {len(records)} records, {rows} samples, "
          "killed and resumed across processes", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"stream-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("stream-smoke: ok (byte-identical to the uninterrupted run)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

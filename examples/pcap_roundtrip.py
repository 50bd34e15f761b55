#!/usr/bin/env python3
"""Offline analysis of a packet capture: Dart vs tcptrace on a pcap.

Shows the offline workflow a network operator would use:

1. capture traffic at a vantage point (here: a synthetic capture written
   with this library's own pcap writer — byte-for-byte a real pcap that
   tcpdump/wireshark can open);
2. replay the capture through Dart and the tcptrace baseline;
3. compare sample counts and RTT percentiles.

Run:  python examples/pcap_roundtrip.py [existing.pcap]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis import percentile, render_table
from repro.baselines import TcpTrace, tcptrace_const
from repro.core import LegFilter
from repro.engine import MonitorEngine
from repro.net.inet import InternalNetwork
from repro.net.pcap import write_packets
from repro.net.pcapng import read_any_frames
from repro.traces import CampusTraceConfig, generate_campus_trace


def make_capture() -> Path:
    """Write a synthetic campus capture to a temporary pcap file."""
    trace = generate_campus_trace(CampusTraceConfig(connections=300, seed=9))
    path = Path(tempfile.mkstemp(suffix=".pcap")[1])
    count = write_packets(path, trace.records)
    print(f"wrote {count} packets to {path} "
          f"({path.stat().st_size / 1e6:.1f} MB, nanosecond pcap)")
    return path


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        print(f"analyzing user-supplied capture {path}")
    else:
        path = make_capture()

    campus = LegFilter(InternalNetwork([(0x0A000000, 8)]), legs=("external",))
    dart = tcptrace_const(leg_filter=campus)
    baseline = TcpTrace(track_handshake=False, leg_filter=campus)

    engine = MonitorEngine()
    engine.add_monitor(dart, name="dart")
    engine.add_monitor(baseline, name="tcptrace")
    report = engine.run_frames(read_any_frames(path))
    print(f"replayed {report.records} packets in "
          f"{report.wall_seconds:.2f}s "
          f"({report.records_per_second:,.0f} pkts/s)")

    rows = []
    for name, monitor in (("Dart", dart), ("tcptrace", baseline)):
        rtts = [s.rtt_ms for s in monitor.samples]
        if not rtts:
            rows.append([name, 0, "-", "-", "-"])
            continue
        rows.append([
            name, len(rtts),
            f"{percentile(rtts, 50):.1f}",
            f"{percentile(rtts, 95):.1f}",
            f"{max(rtts):.1f}",
        ])
    print()
    print(render_table(
        ["monitor", "samples", "p50 (ms)", "p95 (ms)", "max (ms)"],
        rows,
        title="External-leg RTTs recovered from the capture",
    ))
    ratio = 100 * len(dart.samples) / max(len(baseline.samples), 1)
    print(f"\nDart collected {ratio:.1f}% of tcptrace's samples "
          f"(paper: ~83% on the campus trace)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Detecting bufferbloat from continuous RTT samples (paper §7).

Simulates a bulk upload through a 10 Mbps bottleneck with a deep
(100 ms) FIFO buffer.  Nothing here scripts an RTT change: loss-based
congestion control fills the buffer until it overflows, backs off, and
fills it again — the classic bufferbloat sawtooth — and Dart's
continuous samples expose it.  The detector keys on the fingerprint
that distinguishes bloat from a path change: the per-window p90
inflates while samples keep touching the propagation floor (an
interception shifts the whole distribution instead; compare
examples/attack_detection.py).

Run:  python examples/bufferbloat_detection.py
"""

from repro.core import Dart, LegFilter, ideal_config
from repro.detection import BufferbloatConfig, BufferbloatDetector
from repro.net.inet import InternalNetwork
from repro.simnet import (
    Connection,
    ConnectionSpec,
    EventLoop,
    LegProfile,
    MonitorTap,
    SimRandom,
)

MS = 1_000_000
SEC = 1_000_000_000


def main() -> None:
    loop = EventLoop()
    tap = MonitorTap(loop)
    spec = ConnectionSpec(
        client_ip=0x0A010001, client_port=40000,
        server_ip=0x10000001, server_port=443,
        request_bytes=60_000_000, response_bytes=200,   # a long upload
        internal=LegProfile(delay_ns=1 * MS, jitter_fraction=0.02),
        external=LegProfile(delay_ns=10 * MS, jitter_fraction=0.03,
                            bandwidth_bps=10_000_000,     # the bottleneck
                            queue_limit_ns=100 * MS),     # a deep buffer
        auto_close=False,
    )
    connection = Connection(loop, SimRandom(3), tap, spec)
    connection.start()
    loop.run(until_ns=45 * SEC)
    bottleneck = connection.link_m2s  # monitor->server carries the upload
    print(f"simulated {tap.observed} packets of a 60 MB upload through a "
          f"10 Mbps bottleneck (propagation RTT ~22 ms)")
    print(f"bottleneck peak queueing delay: "
          f"{bottleneck.stats.max_queue_delay_ns / 1e6:.0f} ms; "
          f"tail drops: {bottleneck.stats.dropped}")

    detector = BufferbloatDetector(
        BufferbloatConfig(window_ns=10 * SEC, min_samples_per_window=50)
    )
    dart = Dart(
        ideal_config(),
        leg_filter=LegFilter(InternalNetwork([(0x0A000000, 8)]),
                             legs=("external",)),
    )
    per_second = {}
    for record in tap.trace:
        for sample in dart.process(record):
            detector.add(sample)
            per_second.setdefault(sample.timestamp_ns // SEC, []).append(
                sample.rtt_ms
            )

    print("\n  t(s)   samples   min RTT   p90 RTT   (sawtooth: queue "
          "fills, overflows, drains)")
    for second in sorted(per_second):
        if second % 3:
            continue  # print every third second
        rtts = sorted(per_second[second])
        p90 = rtts[min(len(rtts) - 1, int(0.9 * len(rtts)))]
        print(f"  {second:4d}   {len(rtts):7d}   {rtts[0]:7.1f}   {p90:7.1f}")

    print()
    if detector.episodes:
        episode = detector.episodes[0]
        print(f"bufferbloat CONFIRMED at t="
              f"{episode.confirmed_at_ns / SEC:.0f}s: p90 inflated "
              f"{episode.inflation:.1f}x while the "
              f"{episode.baseline_min_ns / 1e6:.1f} ms propagation floor "
              f"stays intact")
    else:
        print("no bufferbloat detected")


if __name__ == "__main__":
    main()

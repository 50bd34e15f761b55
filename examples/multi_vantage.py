#!/usr/bin/env python3
"""Multiple on-path vantage points: localizing degradation (paper §7).

Two monitors sit on the same path:

    client --L1--> [VP1: campus gateway] --L2--> [VP2: peering edge] --L3--> server

Each vantage point runs its own Dart and measures its *external* leg
(from itself to the server and back).  When the middle segment (L2)
degrades, VP1's external RTT inflates while VP2's does not — so the
operator can localize the problem to the path between the two VPs,
one of the §7 deployment ideas.

Run:  python examples/multi_vantage.py
"""

from repro.core import Dart, LegFilter, ideal_config
from repro.net.inet import InternalNetwork, int_to_ipv4, ipv4_to_int
from repro.simnet import EventLoop, Link, MonitorTap, SimRandom, TcpEndpoint
from repro.simnet.tcp_endpoint import TcpParams

MS = 1_000_000
SEC = 1_000_000_000

CLIENT = ipv4_to_int("10.1.0.5")
SERVER = ipv4_to_int("192.0.2.80")
DEGRADE_AT = 20 * SEC
DURATION = 40 * SEC


def middle_delay(now_ns: int) -> int:
    """L2's one-way delay: 8 ms, degrading to 60 ms mid-run."""
    return 8 * MS if now_ns < DEGRADE_AT else 60 * MS


def build_topology(loop, rng, tap1, tap2):
    params = TcpParams(ack_every=2)
    client = TcpEndpoint(
        loop, rng.fork("client"), local_ip=CLIENT, local_port=44000,
        remote_ip=SERVER, remote_port=443, isn=0x1000, params=params,
        role="client",
    )
    server = TcpEndpoint(
        loop, rng.fork("server"), local_ip=SERVER, local_port=443,
        remote_ip=CLIENT, remote_port=44000, isn=0x2000, params=params,
        role="server",
    )

    def link(delay, name):
        return Link(loop, rng.fork(name), delay_ns=delay,
                    jitter_fraction=0.03, name=name)

    # Forward path: client -> VP1 -> VP2 -> server.
    l1_fwd = link(1 * MS, "L1-fwd")
    l2_fwd = link(middle_delay, "L2-fwd")
    l3_fwd = link(2 * MS, "L3-fwd")
    l1_fwd.connect(tap1.tap_and_forward(l2_fwd))
    l2_fwd.connect(tap2.tap_and_forward(l3_fwd))
    l3_fwd.connect(server.receive)

    # Reverse path: server -> VP2 -> VP1 -> client.
    l3_rev = link(2 * MS, "L3-rev")
    l2_rev = link(middle_delay, "L2-rev")
    l1_rev = link(1 * MS, "L1-rev")
    l3_rev.connect(tap2.tap_and_forward(l2_rev))
    l2_rev.connect(tap1.tap_and_forward(l1_rev))
    l1_rev.connect(client.receive)

    client.connect_pipe(l1_fwd)
    server.connect_pipe(l3_rev)
    return client, server


def main() -> None:
    loop = EventLoop()
    rng = SimRandom(21)
    tap1, tap2 = MonitorTap(loop), MonitorTap(loop)
    client, server = build_topology(loop, rng, tap1, tap2)

    chunk = 2 * 1448

    def push(elapsed):
        if elapsed > DURATION:
            return
        if client.established:
            client.send_app_data(chunk)
        loop.schedule(100 * MS, push, elapsed + 100 * MS)

    loop.schedule_at(0, client.open)
    loop.schedule_at(150 * MS, push, 0)
    loop.run(until_ns=DURATION + 2 * SEC)

    campus = InternalNetwork([(CLIENT, 32)])
    darts = {}
    for name, tap in (("VP1 (campus gateway)", tap1),
                      ("VP2 (peering edge)", tap2)):
        dart = Dart(ideal_config(),
                    leg_filter=LegFilter(campus, legs=("external",)))
        for record in tap.trace:
            dart.process(record)
        darts[name] = dart

    print(f"path: {int_to_ipv4(CLIENT)} -> VP1 -> VP2 -> "
          f"{int_to_ipv4(SERVER)}; middle segment degrades at t="
          f"{DEGRADE_AT / SEC:.0f}s\n")
    print(f"{'vantage point':24s} {'pre (ms)':>10s} {'post (ms)':>10s} "
          f"{'shift':>8s}")
    shifts = {}
    for name, dart in darts.items():
        pre = [s.rtt_ms for s in dart.samples
               if s.timestamp_ns < DEGRADE_AT]
        post = [s.rtt_ms for s in dart.samples
                if s.timestamp_ns > DEGRADE_AT + 2 * SEC]
        pre_med = sorted(pre)[len(pre) // 2]
        post_med = sorted(post)[len(post) // 2]
        shifts[name] = post_med - pre_med
        print(f"{name:24s} {pre_med:10.1f} {post_med:10.1f} "
              f"{post_med - pre_med:+8.1f}")

    vp1, vp2 = shifts.values()
    print()
    if vp1 > 10 and vp2 < 10:
        print("diagnosis: RTT inflated at VP1 but not at VP2 -> the "
              "degradation lies BETWEEN the two vantage points (the "
              "middle segment).")
    else:
        print("diagnosis: inconclusive")


if __name__ == "__main__":
    main()

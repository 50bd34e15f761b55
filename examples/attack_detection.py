#!/usr/bin/env python3
"""Detecting a BGP interception attack from RTT shifts (paper §5.2).

Simulates a long-lived TCP session whose wide-area path is hijacked at
t = 36 s (RTT steps from ~25 ms to ~120 ms), with Dart attached *live*
to the monitoring point and the windowed-min change detector consuming
its sample stream in real time.  Prints the detection timeline and the
paper's headline metric: packets exchanged between the attack taking
effect and its confirmation.

Run:  python examples/attack_detection.py
"""

from repro.core import Dart, LegFilter, ideal_config
from repro.detection import (
    DetectionState,
    InterceptionDetector,
    packets_between,
)
from repro.traces import AttackTraceConfig, generate_attack_trace

SEC = 1_000_000_000


def main() -> None:
    config = AttackTraceConfig()
    print("simulating the interception scenario "
          f"(attack takes effect at t={config.attack_at_ns / SEC:.0f}s, "
          f"RTT {config.pre_attack_rtt_ns / 1e6:.0f} ms -> "
          f"{config.post_attack_rtt_ns / 1e6:.0f} ms)...")
    trace = generate_attack_trace(config)

    detector = InterceptionDetector()
    dart = Dart(
        ideal_config(),
        leg_filter=LegFilter(trace.internal, legs=("external",)),
    )

    # Stream packets through Dart exactly as the switch would see them;
    # report every detector state change as it happens.
    reported = 0
    for record in trace.records:
        for sample in dart.process(record):
            detector.add(sample)
            while reported < len(detector.events):
                event = detector.events[reported]
                reported += 1
                print(f"  t={event.timestamp_ns / SEC:7.2f}s  "
                      f"state={event.state.value:9s}  "
                      f"window min RTT = {event.min_rtt_ns / 1e6:6.1f} ms  "
                      f"(baseline {event.baseline_ns / 1e6:.1f} ms)")

    confirmed = detector.confirmed_at_ns
    if confirmed is None:
        print("attack was NOT confirmed — something is off")
        return
    exchanged = packets_between(trace.records, config.attack_at_ns,
                                confirmed)
    print()
    print(f"attack confirmed {((confirmed - config.attack_at_ns) / SEC):.2f}s "
          f"after taking effect, within {exchanged} packet exchanges "
          f"(paper: 2.58 s / 63 packets)")
    assert detector.state is DetectionState.CONFIRMED


if __name__ == "__main__":
    main()

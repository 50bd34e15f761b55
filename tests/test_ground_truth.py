"""Ground-truth validation: Dart's samples against known link delays.

On a clean (loss-free, reorder-free, jitter-free) simulated path every
RTT sample Dart emits is exactly determined by the configured one-way
delays plus bounded end-host behaviour (the delayed-ACK timer).  These
tests pin the measurement semantics to physical ground truth — if a
timestamp is taken at the wrong place or a wrong pair is matched, the
arithmetic breaks loudly.
"""

import pytest

from repro.baselines import TcpTrace
from repro.core import Dart, LegFilter, ideal_config
from repro.net.inet import InternalNetwork
from repro.simnet import (
    Connection,
    ConnectionSpec,
    EventLoop,
    LegProfile,
    MonitorTap,
    SimRandom,
)
from repro.simnet.tcp_endpoint import TcpParams

MS = 1_000_000

#: The client side: 10.0.0.0/8.
CAMPUS = InternalNetwork([(0x0A000000, 8)])

INTERNAL_OW = 3 * MS
EXTERNAL_OW = 11 * MS


@pytest.fixture(scope="module")
def clean_run():
    loop = EventLoop()
    tap = MonitorTap(loop)
    spec = ConnectionSpec(
        client_ip=0x0A010001, client_port=40000,
        server_ip=0x10000001, server_port=443,
        request_bytes=200_000, response_bytes=300_000,
        internal=LegProfile(delay_ns=INTERNAL_OW, jitter_fraction=0),
        external=LegProfile(delay_ns=EXTERNAL_OW, jitter_fraction=0),
        tcp=TcpParams(),
    )
    Connection(loop, SimRandom(12), tap, spec).start()
    loop.run()
    return tap.trace


def external_samples(trace):
    dart = Dart(ideal_config(),
                leg_filter=LegFilter(CAMPUS, legs=("external",)))
    for record in trace:
        dart.process(record)
    return dart.samples


def internal_samples(trace):
    dart = Dart(ideal_config(),
                leg_filter=LegFilter(CAMPUS, legs=("internal",)))
    for record in trace:
        dart.process(record)
    return dart.samples


class TestGroundTruth:
    def test_external_leg_floor_is_wan_round_trip(self, clean_run):
        samples = external_samples(clean_run)
        assert samples
        floor = min(s.rtt_ns for s in samples)
        # monitor -> server -> monitor, plus the FIFO +1ns ticks.
        assert floor == pytest.approx(2 * EXTERNAL_OW, rel=0.01)

    def test_external_leg_ceiling_bounded_by_delayed_ack(self, clean_run):
        samples = external_samples(clean_run)
        ceiling = max(s.rtt_ns for s in samples)
        delack = TcpParams().delayed_ack_ns
        assert ceiling <= 2 * EXTERNAL_OW + delack + 1 * MS

    def test_internal_leg_floor_is_campus_round_trip(self, clean_run):
        samples = internal_samples(clean_run)
        assert samples
        floor = min(s.rtt_ns for s in samples)
        assert floor == pytest.approx(2 * INTERNAL_OW, rel=0.01)

    def test_legs_do_not_mix(self, clean_run):
        ext = external_samples(clean_run)
        internal = internal_samples(clean_run)
        # The two legs' distributions are disjoint on this path
        # (6 ms internal vs 22 ms external, delayed-ACK bounded).
        assert max(s.rtt_ns for s in internal) < min(
            s.rtt_ns for s in ext
        ) + TcpParams().delayed_ack_ns

    def test_dart_and_tcptrace_agree_exactly_on_clean_path(self, clean_run):
        leg = LegFilter(CAMPUS, legs=("external",))
        dart = Dart(ideal_config(), leg_filter=leg)
        tt = TcpTrace(track_handshake=False, leg_filter=leg)
        for record in clean_run:
            dart.process(record)
            tt.process(record)
        dart_pairs = {(s.eack, s.rtt_ns) for s in dart.samples}
        tt_pairs = {(s.eack, s.rtt_ns) for s in tt.samples}
        # No ambiguity on a clean path: the two monitors see the same
        # matched pairs, byte for byte and nanosecond for nanosecond.
        assert dart_pairs == tt_pairs

    def test_every_sample_anchored_to_observed_data_packet(self, clean_run):
        observed = {}
        for record in clean_run:
            if record.carries_data:
                observed.setdefault(
                    (record.src_ip, record.eack), record.timestamp_ns
                )
        for sample in external_samples(clean_run):
            key = (sample.flow.src_ip, sample.eack)
            assert key in observed
            assert (sample.timestamp_ns - sample.rtt_ns
                    == observed[key])

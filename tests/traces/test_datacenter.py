"""Adversarial workload generator tests (incast / video / file transfer)."""

import pytest

from repro.traces.datacenter import (
    DC_NET,
    PEER_NET,
    FileTransferTraceConfig,
    IncastShape,
    IncastTraceConfig,
    VideoTraceConfig,
    generate_file_transfer_trace,
    generate_incast_trace,
    generate_video_trace,
)

MS = 1_000_000


def small_incast(seed=1, **kw):
    return IncastTraceConfig(
        seed=seed,
        shape=IncastShape(senders=6, rounds=1, response_bytes=30_000),
        **kw,
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "generate,config",
        [
            (generate_incast_trace, small_incast),
            (generate_video_trace, lambda: VideoTraceConfig(calls=2)),
            (generate_file_transfer_trace,
             lambda: FileTransferTraceConfig(transfers=2)),
        ],
        ids=["incast", "video", "filetx"],
    )
    def test_same_seed_same_trace(self, generate, config):
        a = generate(config())
        b = generate(config())
        assert a.packets == b.packets
        assert [(r.timestamp_ns, r.seq, r.ack, r.flags) for r in a.records] \
            == [(r.timestamp_ns, r.seq, r.ack, r.flags) for r in b.records]

    def test_different_seed_different_trace(self):
        a = generate_incast_trace(small_incast(seed=1))
        b = generate_incast_trace(small_incast(seed=2))
        assert [(r.timestamp_ns, r.seq) for r in a.records] \
            != [(r.timestamp_ns, r.seq) for r in b.records]


class TestIncast:
    def test_all_workers_complete(self):
        trace = generate_incast_trace(small_incast())
        assert trace.kind == "incast"
        assert trace.connections == 6
        assert trace.completed == 6

    def test_fanin_congestion_forces_recovery(self):
        # The shared shallow buffer is the whole point: synchronized
        # responses must overflow it even with zero configured loss.
        trace = generate_incast_trace(IncastTraceConfig())
        assert trace.completed == trace.connections
        assert trace.retransmissions > 0
        assert trace.timeouts > 0

    def test_internal_classifier_matches_address_plan(self):
        trace = generate_incast_trace(small_incast())
        assert (DC_NET | 1) in trace.internal
        assert (PEER_NET | 1) not in trace.internal

    @pytest.mark.parametrize("cc", ["reno", "cubic", "bbr"])
    def test_every_cc_survives_the_storm(self, cc):
        trace = generate_incast_trace(small_incast(cc=cc))
        assert trace.completed == trace.connections


class TestVideo:
    def test_calls_stay_open_and_bidirectional(self):
        trace = generate_video_trace(VideoTraceConfig(calls=2))
        assert trace.connections == 2
        client_data = sum(1 for r in trace.records
                          if r.src_ip >= DC_NET and r.payload_len > 0)
        server_data = sum(1 for r in trace.records
                          if r.src_ip >= PEER_NET and r.payload_len > 0)
        assert client_data > 100  # ~180 frames/call, some coalesced
        assert server_data > 100

    def test_thin_stream_paces_over_wall_clock(self):
        trace = generate_video_trace(VideoTraceConfig(calls=1))
        span = trace.records[-1].timestamp_ns - trace.records[0].timestamp_ns
        assert span >= 5_000_000_000  # the 6 s call, minus scheduling slack


class TestFileTransfer:
    def test_transfers_complete_through_bottleneck(self):
        trace = generate_file_transfer_trace(FileTransferTraceConfig())
        assert trace.connections == 3
        assert trace.completed == 3

    def test_bottleneck_queueing_stretches_rtt(self):
        # With a 40 Mbit/s bottleneck and deep buffer, data-packet
        # spacing reflects serialization, so the trace lasts much longer
        # than the propagation delay alone would predict.
        trace = generate_file_transfer_trace(
            FileTransferTraceConfig(transfers=1)
        )
        span = trace.records[-1].timestamp_ns - trace.records[0].timestamp_ns
        # 2 MB at 40 Mbit/s is ~0.4 s of pure serialization.
        assert span >= 300 * MS

    def test_loss_adds_retransmissions(self):
        clean = generate_file_transfer_trace(
            FileTransferTraceConfig(transfers=1)
        )
        lossy = generate_file_transfer_trace(
            FileTransferTraceConfig(transfers=1, loss_rate=0.05)
        )
        assert lossy.retransmissions > clean.retransmissions

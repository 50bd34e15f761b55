"""The byte-batched shard transport: framing, ring mechanics, equivalence.

Three layers of guarantees:

* the record framing round-trips exactly and rejects malformed batches;
* the shared-memory ring delivers every message intact through
  wrap-around, applies backpressure via the caller's stall check, and
  tears down idempotently;
* a cluster, in either mode, produces results *identical* to serial
  on both the object and raw-wire entry points.
"""

import multiprocessing
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.cluster import ShardedDart, ShmRingTransport
from repro.cluster import transport as transport_mod
from repro.cluster.transport import TransportClosed
from repro.core import Dart, ideal_config
from repro.net import tcp as tcpf
from repro.net.framing import (
    BatchEncoder,
    FrameError,
    decode_batch,
    encode_records,
)
from repro.net.packet import PacketRecord, from_wire_bytes, to_wire_bytes
from repro.quic.packet import QuicPacketRecord
from repro.quic.wire import quic_to_wire_bytes
from repro.traces import CampusTraceConfig, generate_campus_trace
from tests.cluster.test_wire_fastpath import option_frame


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=60, seed=5)
    ).records


def make_record(**overrides):
    base = dict(
        timestamp_ns=1_000_000, src_ip=0x0A000001, dst_ip=0x10000001,
        src_port=40000, dst_port=443, seq=1000, ack=500,
        flags=tcpf.FLAG_ACK, payload_len=100,
    )
    base.update(overrides)
    return PacketRecord(**base)


# -- Framing ---------------------------------------------------------------

class TestFraming:
    def test_record_roundtrip_v4_v6(self):
        originals = [
            make_record(),
            make_record(src_ip=(1 << 127) | 7, dst_ip=(1 << 100) | 9,
                        ipv6=True),
            make_record(flags=tcpf.FLAG_SYN, payload_len=0, seq=2**32 - 1),
        ]
        assert decode_batch(encode_records(originals)) == originals

    def test_wire_roundtrip_interleaved_with_records(self, records):
        encoder = BatchEncoder()
        sample = list(records[:64])
        for i, record in enumerate(sample):
            if i % 2:
                encoder.add_wire(to_wire_bytes(record), record.timestamp_ns)
            else:
                encoder.add_record(record)
        assert encoder.count == len(sample)
        assert decode_batch(encoder.take()) == sample
        assert encoder.count == 0 and encoder.size == 0

    def test_decode_accepts_memoryview(self):
        payload = encode_records([make_record()])
        assert decode_batch(memoryview(payload)) == [make_record()]

    def test_batches_concatenate(self):
        a, b = make_record(), make_record(src_port=555)
        assert decode_batch(
            encode_records([a]) + encode_records([b])
        ) == [a, b]

    def test_truncated_batch_rejected(self):
        payload = encode_records([make_record()])
        with pytest.raises(FrameError):
            decode_batch(payload[:-3])

    def test_unknown_type_rejected(self):
        payload = bytearray(encode_records([make_record()]))
        payload[2] = 99
        with pytest.raises(FrameError):
            decode_batch(bytes(payload))

    def test_oversized_wire_frame_rejected(self):
        encoder = BatchEncoder()
        with pytest.raises(FrameError):
            encoder.add_wire(b"\x00" * 70_000, 0)


# -- The shared-memory ring ------------------------------------------------

def small_ring():
    return ShmRingTransport(multiprocessing.get_context(), capacity=512)


class TestShmRing:
    def test_messages_cross_intact_through_wraparound(self):
        ring = small_ring()
        try:
            # Payload sizes chosen to hit the edge at misaligned
            # offsets (including the < 4-byte dead-tail case) many
            # times over the ring's 512-byte capacity.
            sizes = [100, 37, 101, 64, 99, 3, 61] * 40
            sent = []
            for i, size in enumerate(sizes):
                payload = bytes([i % 251]) * size
                ring.send_batch(payload)
                sent.append(payload)
                kind, got = ring.recv()
                assert kind == "batch"
                assert got == sent[-1]
        finally:
            ring.destroy()

    def test_several_in_flight(self):
        ring = small_ring()
        try:
            payloads = [bytes([i]) * 40 for i in range(4)]
            for p in payloads:
                ring.send_batch(p)
            assert ring.depth() > 0
            for p in payloads:
                assert ring.recv() == ("batch", p)
            assert ring.depth() == 0
        finally:
            ring.destroy()

    def test_control_messages(self):
        ring = small_ring()
        try:
            ring.send_batch(b"x" * 10)
            for end_ns in (123_456, None, 0, 2**62):
                ring.send_finish(end_ns)
            assert ring.recv() == ("batch", b"x" * 10)
            for end_ns in (123_456, None, 0, 2**62):
                assert ring.recv() == ("finish", end_ns)
            ring.send_stop()
            assert ring.recv() == ("stop", None)
        finally:
            ring.destroy()

    def test_backpressure_runs_stall_check(self):
        ring = small_ring()
        try:
            class Dead(Exception):
                pass

            def stall_check():
                raise Dead

            with pytest.raises(Dead):
                for _ in range(1000):
                    ring.send_batch(b"y" * 60, stall_check)
        finally:
            ring.destroy()

    @staticmethod
    def fill(ring):
        """Seven 65-byte messages: the eighth does not fit the 512-byte
        ring until one is consumed."""
        for i in range(7):
            ring.send_batch(bytes([i]) * 60)

    @pytest.mark.parametrize("make_room", ["recv", "drain"])
    def test_blocked_send_wakes_when_the_consumer_makes_room(
            self, monkeypatch, make_room):
        # With a 30 s poll step only the consumer's progress can wake
        # the producer inside the join timeout below: a producer that
        # naps on a full ring sits out the whole step.
        monkeypatch.setattr(transport_mod, "POLL_S", 30.0)
        ring = small_ring()
        try:
            self.fill(ring)
            checks = []
            sender = threading.Thread(
                target=ring.send_batch,
                args=(b"\xff" * 60, lambda: checks.append(1)), daemon=True)
            sender.start()
            while not checks:  # the producer has found the ring full
                time.sleep(0.001)
            time.sleep(0.02)
            assert sender.is_alive()
            if make_room == "recv":
                assert ring.recv() == ("batch", b"\x00" * 60)
            else:
                ring.drain()
            sender.join(5.0)
            assert not sender.is_alive()
            if make_room == "recv":
                for i in range(1, 7):
                    assert ring.recv() == ("batch", bytes([i]) * 60)
            assert ring.recv() == ("batch", b"\xff" * 60)
            assert ring.depth() == 0
        finally:
            ring.destroy()

    def test_no_wait_outlasts_the_poll_step(self):
        """Blocked on a consumer that never comes, the producer checks
        for a dead peer before every wait and never asks to wait longer
        than ``POLL_S`` — so ``stall_check`` runs at least that often."""
        class Dead(Exception):
            pass

        class RecordingSemaphore:
            def __init__(self, inner):
                self.inner = inner
                self.timeouts = []

            def acquire(self, block=True, timeout=None):
                self.timeouts.append(timeout if block else 0)
                return self.inner.acquire(block, 0.001 if block else None)

            def release(self):
                self.inner.release()

        ring = small_ring()
        try:
            self.fill(ring)
            space = ring._space = RecordingSemaphore(ring._space)
            checks = []

            def stall_check():
                checks.append(len(space.timeouts))
                if len(checks) == 4:
                    raise Dead

            with pytest.raises(Dead):
                ring.send_batch(b"y" * 60, stall_check)
            # One stall check ahead of each wait, each wait bounded.
            assert checks == [0, 1, 2, 3]
            assert space.timeouts == [transport_mod.POLL_S] * 3
        finally:
            ring.destroy()

    def test_drain_fast_forwards(self):
        ring = small_ring()
        try:
            for _ in range(4):
                ring.send_batch(b"z" * 50)
            ring.drain()
            assert ring.depth() == 0
            ring.send_batch(b"after")
            assert ring.recv() == ("batch", b"after")
        finally:
            ring.destroy()

    def test_oversized_message_rejected(self):
        ring = small_ring()
        try:
            with pytest.raises(ValueError):
                ring.send_batch(b"x" * ring.capacity)
        finally:
            ring.destroy()

    def test_destroy_idempotent_and_closes(self):
        ring = small_ring()
        ring.destroy()
        ring.destroy()
        with pytest.raises(TransportClosed):
            ring.send_batch(b"x")


# -- End-to-end equivalence ------------------------------------------------

def mixed_capture(records):
    """``(frame, timestamp_ns)`` pairs: each connection rides as plain
    IPv4/TCP, with a TCP timestamp option, or over IPv6, and an ARP
    frame, a 2-byte runt and a UDP datagram recur in between."""
    arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28
    udp = quic_to_wire_bytes(QuicPacketRecord(
        timestamp_ns=0, src_ip=0x0A000001, dst_ip=0x0A000002,
        src_port=5000, dst_port=443, spin_bit=False, long_header=False,
        payload_len=30))
    capture = []
    for i, record in enumerate(records):
        endpoints = sorted([(record.src_ip, record.src_port),
                            (record.dst_ip, record.dst_port)])
        shape = hash(tuple(endpoints)) % 3
        if shape == 0:
            frame = to_wire_bytes(record)
        elif shape == 1:
            frame = option_frame(record, tcp_options=tcpf.TcpOptions(
                timestamp=(i, 0)))
        else:
            frame = to_wire_bytes(replace(
                record, src_ip=(1 << 100) | record.src_ip,
                dst_ip=(1 << 100) | record.dst_ip, ipv6=True))
        capture.append((frame, record.timestamp_ns))
        if i % 50 == 0:
            capture.extend((junk, record.timestamp_ns)
                           for junk in (arp, b"\x00\x01", udp))
    return capture


def decode_or_skip(frame, timestamp_ns):
    """What a capture reader hands ``Dart``: the decoded record, or
    ``None`` for a frame it skips (non-TCP, or too short to parse)."""
    try:
        return from_wire_bytes(frame, timestamp_ns)
    except ValueError:
        return None


def run_serial(records):
    dart = Dart(ideal_config())
    dart.process_batch(records)
    dart.finalize()
    return dart


class TestTransportEquivalence:
    def test_records_match_serial(self, records):
        serial = run_serial(records)
        cluster = ShardedDart(
            ideal_config(), shards=4, parallel="process",
            batch_size=256, join_timeout=15.0,
        )
        cluster.process_batch(records)
        cluster.finalize()
        assert cluster.stats == serial.stats
        assert Counter(cluster.samples) == Counter(serial.samples)

    def test_wire_path_matches_serial(self, records):
        serial = run_serial(records)
        cluster = ShardedDart(
            ideal_config(), shards=4, parallel="process",
            batch_size=256, join_timeout=15.0,
        )
        for record in records:
            cluster.process_wire(to_wire_bytes(record), record.timestamp_ns)
        cluster.finalize()
        assert cluster.wire_skipped == 0
        assert cluster.stats == serial.stats
        assert Counter(cluster.samples) == Counter(serial.samples)

    @pytest.mark.parametrize("decoder", ["columnar", "object"])
    def test_mixed_capture_matches_serial(self, records, decoder):
        """Plain frames (header parsed at dispatch, shipped as records)
        and everything else (shipped whole) interleave in one capture:
        both modes skip the same frames, route the same packets to each
        shard, and answer what one ``Dart`` fed the decoded frames does.

        ``columnar`` takes the framed worker route (the id is kept from
        when the worker's decoder depended on numpy; it no longer
        does), ``object`` the reference leg."""
        capture = mixed_capture(records)
        decoded = [decode_or_skip(frame, ts) for frame, ts in capture]
        reference = Dart(ideal_config())
        reference.process_batch(decoded)
        reference.finalize()
        serial, cluster = (
            ShardedDart(ideal_config(), shards=3, parallel=parallel,
                        batch_size=64, join_timeout=15.0,
                        fastpath=decoder != "object")
            for parallel in ("serial", "process")
        )
        for monitor in (serial, cluster):
            for frame, timestamp_ns in capture:
                monitor.process_wire(frame, timestamp_ns)
            monitor.finalize()
        assert (cluster.wire_skipped == serial.wire_skipped
                == decoded.count(None) > 0)
        assert (cluster._dispatcher.dispatched
                == serial._dispatcher.dispatched)
        assert ([r.packets for r in cluster.shard_results]
                == [r.packets for r in serial.shard_results])
        assert cluster.stats == serial.stats == reference.stats
        assert cluster.stats.packets_processed == len(records)
        assert (Counter(cluster.samples) == Counter(serial.samples)
                == Counter(reference.samples))
        assert cluster.samples
        assert cluster.window_history == serial.window_history

    def test_unshardable_frames_skipped_and_counted(self, records):
        cluster = ShardedDart(
            ideal_config(), shards=2, parallel="process",
            batch_size=64, join_timeout=15.0,
        )
        arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28
        cluster.process_wire(arp, 1)
        cluster.process_wire(b"\x00\x01", 2)
        for record in records[:200]:
            cluster.process_wire(to_wire_bytes(record), record.timestamp_ns)
        cluster.finalize()
        assert cluster.wire_skipped == 2
        assert cluster.stats.packets_processed == 200

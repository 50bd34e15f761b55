"""The shard-key invariant and the batching dispatcher."""

import pytest

from repro.cluster import ByteBatchDispatcher, shard_of, shard_of_flow
from repro.core import FlowKey, ack_target_flow, flow_of
from repro.net import tcp as tcpf
from repro.net.framing import decode_batch
from repro.net.packet import PacketRecord
from repro.simnet.rng import SimRandom


def pkt(src, dst, sport, dport, *, flags=tcpf.FLAG_ACK, length=0, t_ns=0):
    return PacketRecord(
        timestamp_ns=t_ns, src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, seq=1000, ack=1, flags=flags, payload_len=length,
    )


def random_flows(count, seed=42):
    rng = SimRandom(seed)
    return [
        FlowKey(
            src_ip=rng.randint(1, 0xFFFFFFFE),
            dst_ip=rng.randint(1, 0xFFFFFFFE),
            src_port=rng.randint(1, 65535),
            dst_port=rng.randint(1, 65535),
        )
        for _ in range(count)
    ]


class TestShardInvariant:
    def test_bidirectional(self):
        """SEQ- and ACK-direction flows of one connection co-locate."""
        for flow in random_flows(500):
            for shards in (2, 3, 4, 8):
                assert shard_of_flow(flow, shards) == shard_of_flow(
                    flow.reversed(), shards
                )

    def test_data_and_its_ack_share_a_shard(self):
        data = pkt(0x0A000001, 0x10000001, 40000, 443,
                   flags=tcpf.FLAG_ACK | tcpf.FLAG_PSH, length=100)
        ack = pkt(0x10000001, 0x0A000001, 443, 40000)
        for shards in (2, 4, 7):
            assert shard_of(data, shards) == shard_of(ack, shards)
        # The shard of the ACK's *target* flow is the data flow's shard.
        assert shard_of_flow(ack_target_flow(ack), 4) == shard_of_flow(
            flow_of(data), 4
        )

    def test_single_shard_is_always_zero(self):
        for flow in random_flows(20):
            assert shard_of_flow(flow, 1) == 0

    def test_range(self):
        for flow in random_flows(200):
            assert 0 <= shard_of_flow(flow, 5) < 5

    def test_ipv6_flows_shard_too(self):
        flow = FlowKey(src_ip=1 << 100, dst_ip=2 << 100, src_port=1,
                       dst_port=2, ipv6=True)
        assert shard_of_flow(flow, 4) == shard_of_flow(flow.reversed(), 4)

    def test_spreads_load(self):
        """No shard starves on a large random flow population."""
        shards = 4
        counts = [0] * shards
        for flow in random_flows(2000, seed=7):
            counts[shard_of_flow(flow, shards)] += 1
        assert min(counts) > 0
        # Within 3x of each other — CRC32 on random keys is near-uniform.
        assert max(counts) < 3 * min(counts)


class TestSplitTrace:
    def test_partition_preserves_packets_and_order(self):
        """Dispatching a trace splits it across shards: no packet lost
        or duplicated, each shard's part still in time order."""
        parts = {}
        dispatcher = ByteBatchDispatcher(
            4, lambda shard, batch: parts.setdefault(shard, []).extend(
                decode_batch(batch)),
        )
        records = [
            pkt(src, 0x10000001, 40000 + src % 10, 443, t_ns=i)
            for i, src in enumerate(range(100))
        ]
        for record in records:
            dispatcher.dispatch(record)
        dispatcher.flush()
        assert len(parts) > 1
        assert sum(len(p) for p in parts.values()) == len(records)
        for part in parts.values():
            stamps = [r.timestamp_ns for r in part]
            assert stamps == sorted(stamps)


class TestBatchDispatcher:
    """The one dispatcher every mode and shard count routes through."""

    def test_emits_full_batches_and_flush_remainder(self):
        emitted = []
        dispatcher = ByteBatchDispatcher(
            2, lambda shard, batch: emitted.append(
                (shard, len(decode_batch(batch)))),
            batch_size=8,
        )
        records = [pkt(src, 0x10000001, 40000, 443) for src in range(1, 30)]
        for record in records:
            dispatcher.dispatch(record)
        full = [size for _, size in emitted]
        assert all(size == 8 for size in full)
        dispatcher.flush()
        assert sum(size for _, size in emitted) == len(records)
        assert sum(dispatcher.dispatched.values()) == len(records)

    def test_flush_on_empty_is_a_noop(self):
        emitted = []
        dispatcher = ByteBatchDispatcher(2, lambda s, b: emitted.append(b))
        dispatcher.flush()
        assert emitted == []

    def test_routing_matches_shard_of(self):
        """Each shard gets exactly its packets, in arrival order."""
        seen = {}
        dispatcher = ByteBatchDispatcher(
            4, lambda shard, batch: seen.setdefault(shard, []).extend(
                decode_batch(batch)),
            batch_size=3,
        )
        records = [
            pkt(src, 0x10000001, 40000 + src % 10, 443, t_ns=i)
            for i, src in enumerate(range(1, 100))
        ]
        for record in records:
            dispatcher.dispatch(record)
        dispatcher.flush()
        for shard in range(4):
            assert seen.get(shard, []) == [
                r for r in records if shard_of(r, 4) == shard
            ]

    def test_validation(self):
        with pytest.raises(ValueError):
            ByteBatchDispatcher(0, lambda s, b: None)
        with pytest.raises(ValueError):
            ByteBatchDispatcher(2, lambda s, b: None, batch_size=0)

"""Flow-consistent sharding: route packets to parallel Dart instances.

All Dart state — Range Tracker entries, Packet Tracker records, and the
analytics windows — is keyed by the SEQ-direction flow 4-tuple.  A
packet stream can therefore be split across N independent Dart
instances without changing per-flow semantics, *provided* both
directions of a connection land on the same instance: a data packet is
matched by an ACK travelling the opposite way, so the shard function
must be direction-independent.

:func:`shard_of_flow` achieves this by hashing the *canonical*
(smaller-endpoint-first) form of the 4-tuple, the same canonicalisation
:meth:`repro.core.flow.FlowKey.canonical` uses for connection counting.
The hash is a salted CRC32 with a salt of its own, so shard choice is
decorrelated from the table-index and signature hashes — otherwise
flows colliding in a PT stage would pile onto one shard and skew both
load and collision pressure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional

from ..core.flow import FlowKey, flow_of
from ..core.hashing import crc32_hash
from ..net.framing import BatchEncoder
from ..net.packet import PacketRecord, plain_v4_tcp
from ..net.scan import (
    SCAN_PROTOCOLS,
    TCP_ONLY,
    canonical_key_bytes,
    scan_shard_key,
)
from .transport import DEFAULT_BATCH_BYTES

#: Salt for the shard hash; distinct from every table-stage salt and the
#: signature salt in :mod:`repro.core.hashing`.
SHARD_SALT = 0x5AD0CAFE

#: Records buffered per shard before a batch is handed to its worker.
#: Large enough to amortise the per-batch ring operations in process
#: mode, small enough to keep workers busy on modest traces.
DEFAULT_BATCH_SIZE = 2048


@lru_cache(maxsize=1 << 20)
def shard_of_flow(flow: FlowKey, shards: int) -> int:
    """Shard index of a flow (direction-independent).

    SEQ-direction and ACK-direction packets of one connection map to the
    same shard: ``shard_of_flow(f, n) == shard_of_flow(f.reversed(), n)``
    for every flow — the invariant the whole cluster rests on.
    """
    if shards <= 1:
        return 0
    return crc32_hash(flow.canonical().key_bytes(), SHARD_SALT) % shards


def shard_of(record: PacketRecord, shards: int) -> int:
    """Shard index of one observed packet."""
    return shard_of_flow(flow_of(record), shards)


def shard_of_key_bytes(key: bytes, shards: int) -> int:
    """Shard index from pre-built canonical flow-key bytes.

    ``key`` is what :func:`repro.net.scan.scan_shard_key` (or
    :func:`repro.net.scan.canonical_key_bytes`) returns — the exact
    bytes ``FlowKey.canonical().key_bytes()`` would produce after a
    full decode, so this always agrees with :func:`shard_of_flow`.
    """
    if shards <= 1:
        return 0
    return crc32_hash(key, SHARD_SALT) % shards


def shard_of_wire(
    data: bytes,
    shards: int,
    *,
    linktype_ethernet: bool = True,
    protocols: FrozenSet[int] = SCAN_PROTOCOLS,
) -> Optional[int]:
    """Shard index of a raw captured frame, without parsing it.

    ``None`` means the frame is not shardable (non-IP, protocol outside
    ``protocols``, or too short to reach the ports) — the byte-path
    analogue of the decoder returning ``None`` for non-TCP frames.
    """
    key = scan_shard_key(
        data, linktype_ethernet=linktype_ethernet, protocols=protocols
    )
    if key is None:
        return None
    return shard_of_key_bytes(key, shards)


@lru_cache(maxsize=1 << 20)
def _shard_of_v4(src: int, dst: int, sport: int, dport: int,
                 shards: int) -> int:
    """:func:`shard_of_flow` for a bare IPv4 4-tuple (bounded cache)."""
    return shard_of_key_bytes(
        canonical_key_bytes(src, dst, sport, dport), shards
    )


class ByteBatchDispatcher:
    """Buffers framed *bytes* per shard and emits contiguous batches.

    The one route to a shard, in either execution mode: every shard
    owns a :class:`~repro.net.framing.BatchEncoder` and packets are
    packed into its buffer the moment they are routed — no per-shard
    record lists, so nothing crossing a process boundary is ever a
    pickled object graph.
    ``emit(shard_id, payload)`` receives a finished ``bytes`` batch when
    a shard's buffer reaches ``batch_size`` records *or* ``batch_bytes``
    bytes — packed records are 37 bytes, so a count-full batch stays
    well under the ceiling, but a raw wire frame can be MTU-sized, and
    the ceiling (:data:`~repro.cluster.transport.DEFAULT_BATCH_BYTES`,
    an eighth of the ring) is what keeps any one batch inside the ring.

    Two routing entry points:

    * :meth:`dispatch` — a parsed :class:`~repro.net.packet.PacketRecord`;
      sharded via the (cached) flow hash, framed as a packed record.
    * :meth:`dispatch_wire` — a raw captured frame.  An option-free
      IPv4/TCP frame (:func:`~repro.net.packet.plain_v4_tcp`) has its
      header read once, here, and ships as the packed record
      :meth:`dispatch` emits — 37 bytes whatever the payload; any
      other frame is sharded via the TCP header scan and framed
      *unparsed*, in the same per-shard encoder (arrival order holds),
      so the worker does the decode.
      Returns ``False`` for frames the scanner rejects, which the
      caller counts rather than ships.
    """

    def __init__(
        self,
        shards: int,
        emit: Callable[[int, bytes], None],
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if batch_bytes < 1:
            raise ValueError("batch_bytes must be positive")
        self.shards = shards
        self.batch_size = batch_size
        self.batch_bytes = batch_bytes
        self._emit = emit
        self._encoders: List[BatchEncoder] = [
            BatchEncoder() for _ in range(shards)
        ]
        #: Packets routed to each shard so far (including buffered ones).
        self.dispatched: Dict[int, int] = {i: 0 for i in range(shards)}

    def _maybe_emit(self, shard: int, encoder: BatchEncoder) -> None:
        if (encoder.count >= self.batch_size
                or encoder.size >= self.batch_bytes):
            self._emit(shard, encoder.take())

    def dispatch(self, record: PacketRecord) -> None:
        """Route one parsed record; may emit a full batch."""
        shard = shard_of(record, self.shards)
        self.dispatched[shard] += 1
        encoder = self._encoders[shard]
        encoder.add_record(record)
        self._maybe_emit(shard, encoder)

    def dispatch_wire(
        self,
        data: bytes,
        timestamp_ns: int,
        *,
        linktype_ethernet: bool = True,
    ) -> bool:
        """Route one raw frame; ``False`` if not shardable TCP."""
        fields = plain_v4_tcp(data, linktype_ethernet=linktype_ethernet)
        if fields is not None:
            shard = _shard_of_v4(*fields[:4], self.shards)
            self.dispatched[shard] += 1
            encoder = self._encoders[shard]
            encoder.add_v4(timestamp_ns, *fields)
        else:
            key = scan_shard_key(
                data, linktype_ethernet=linktype_ethernet,
                protocols=TCP_ONLY,
            )
            if key is None:
                return False
            shard = shard_of_key_bytes(key, self.shards)
            self.dispatched[shard] += 1
            encoder = self._encoders[shard]
            encoder.add_wire(
                data, timestamp_ns, linktype_ethernet=linktype_ethernet
            )
        self._maybe_emit(shard, encoder)
        return True

    def flush(self) -> None:
        """Emit every non-empty partial batch (end of trace)."""
        for shard, encoder in enumerate(self._encoders):
            if encoder.count:
                self._emit(shard, encoder.take())

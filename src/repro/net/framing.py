"""Length-prefixed record framing: packet batches as contiguous bytes.

The cluster's process-mode transport moves *bytes*, not Python objects:
the coordinator appends records into one contiguous per-shard buffer
and ships the whole buffer in a single operation, so the per-packet
cross-process cost is a small ``struct.pack`` and a memcpy instead of a
pickled object graph.  This module defines that buffer's layout.

Every record is one *frame*::

    u16 length | u8 type | body (``length - 1`` bytes)

with three body types:

* ``REC_V4`` — the nine fields of an IPv4
  :class:`~repro.net.packet.PacketRecord`, fixed 34-byte body (u64
  timestamp, u32 addresses, u16 ports, u32 seq/ack, u16 flags — TCP
  keeps nine flag bits — u32 payload length), a 37-byte frame: what a
  parsed record ships as, and what ``ShardedDart.process_wire`` ships
  for an option-free IPv4/TCP frame after reading its header once;
* ``REC_V6`` — the IPv6 twin with full 16-byte addresses (61 bytes);
* ``REC_WIRE`` — an *unparsed* captured frame: u64 timestamp, u8
  linktype flag, then the raw frame bytes.  Every frame the header
  parse does not settle (IP or TCP options, IPv6, malformed) travels
  whole and the owning worker runs the full decode.

The framing is self-delimiting and append-only, so batches concatenate
freely and a decoder needs no out-of-band record count.  ``u16`` length
bounds a frame body at 65534 bytes — far above any real MTU; oversized
wire frames are rejected at encode time rather than truncated silently.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional

from .packet import PacketRecord, from_wire_bytes

REC_V4 = 0
REC_WIRE = 1
REC_V6 = 2

#: Frame layout structs.  The prefix (u16 length + u8 type) is folded
#: into the packed-record structs so one ``pack`` call per record emits
#: the complete frame.
_PREFIX = struct.Struct("!HB")
#: ts, src, dst, sport, dport, seq, ack, flags, payload_len
_V4 = struct.Struct("!HBQIIHHIIHI")
#: ts, src_hi, src_lo, dst_hi, dst_lo, sport, dport, seq, ack, flags,
#: payload_len
_V6 = struct.Struct("!HBQQQQQHHIIHI")
_WIRE_HEAD = struct.Struct("!HBQB")

_V4_BODY = _V4.size - _PREFIX.size
_V6_BODY = _V6.size - _PREFIX.size
_U64_MASK = (1 << 64) - 1

#: Largest wire-frame payload a u16 length prefix can carry (the
#: length field covers the type byte and the timestamp/linktype head).
MAX_WIRE_BYTES = 0xFFFF - (_WIRE_HEAD.size - _PREFIX.size) - 1


class FrameError(ValueError):
    """A byte batch is malformed (bad length, unknown type, truncation)."""


class BatchEncoder:
    """Accumulates record frames into one contiguous byte buffer.

    One encoder per shard: the dispatcher appends with
    :meth:`add_record` / :meth:`add_v4` / :meth:`add_wire` and hands
    the buffer to the transport with :meth:`take` once it is
    batch-sized.  ``size`` and ``count`` are cheap properties the
    dispatcher polls per append.
    """

    __slots__ = ("_buffer", "count")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.count = 0

    @property
    def size(self) -> int:
        return len(self._buffer)

    def add_record(self, record: PacketRecord) -> None:
        """Append one parsed record as a fixed-size packed frame."""
        if record.ipv6:
            self._buffer += _V6.pack(
                _V6_BODY + 1, REC_V6, record.timestamp_ns & _U64_MASK,
                record.src_ip >> 64, record.src_ip & _U64_MASK,
                record.dst_ip >> 64, record.dst_ip & _U64_MASK,
                record.src_port, record.dst_port, record.seq, record.ack,
                record.flags, record.payload_len,
            )
            self.count += 1
        else:
            self.add_v4(
                record.timestamp_ns, record.src_ip, record.dst_ip,
                record.src_port, record.dst_port, record.seq, record.ack,
                record.flags, record.payload_len,
            )

    def add_v4(self, timestamp_ns: int, src_ip: int, dst_ip: int,
               src_port: int, dst_port: int, seq: int, ack: int,
               flags: int, payload_len: int) -> None:
        """Append one IPv4 packet's fields as a ``REC_V4`` frame."""
        self._buffer += _V4.pack(
            _V4_BODY + 1, REC_V4, timestamp_ns & _U64_MASK, src_ip, dst_ip,
            src_port, dst_port, seq, ack, flags, payload_len,
        )
        self.count += 1

    def add_wire(self, data: bytes, timestamp_ns: int, *,
                 linktype_ethernet: bool = True) -> None:
        """Append one raw captured frame, unparsed."""
        if len(data) > MAX_WIRE_BYTES:
            raise FrameError(
                f"wire frame of {len(data)} bytes exceeds the framing "
                f"limit ({MAX_WIRE_BYTES})"
            )
        self._buffer += _WIRE_HEAD.pack(
            _WIRE_HEAD.size - _PREFIX.size + len(data) + 1, REC_WIRE,
            timestamp_ns & _U64_MASK, 1 if linktype_ethernet else 0,
        )
        self._buffer += data
        self.count += 1

    def take(self) -> bytes:
        """Return the accumulated batch and reset the encoder."""
        batch = bytes(self._buffer)
        self._buffer.clear()
        self.count = 0
        return batch


def encode_records(records: Iterable[PacketRecord]) -> bytes:
    """One-shot convenience: frame an iterable of records."""
    encoder = BatchEncoder()
    for record in records:
        encoder.add_record(record)
    return encoder.take()


def decode_batch(payload) -> List[Optional[PacketRecord]]:
    """Decode a framed byte batch back into records.

    Accepts ``bytes`` or ``memoryview``.  Packed frames rebuild their
    :class:`PacketRecord` directly; wire frames run the full
    :func:`~repro.net.packet.from_wire_bytes` decode *here*, in the
    worker — the whole point of the byte transport is moving that work
    off the coordinator.  Wire frames decoding to non-TCP yield
    ``None`` entries (``process_batch`` skips them), matching the
    serial reader's behaviour for mixed captures.
    """
    view = memoryview(payload)
    end = len(view)
    records: List[Optional[PacketRecord]] = []
    append = records.append
    offset = 0
    while offset < end:
        if end - offset < _PREFIX.size:
            raise FrameError("truncated frame prefix")
        length, kind = _PREFIX.unpack_from(view, offset)
        body_end = offset + _PREFIX.size + length - 1
        if length < 1 or body_end > end:
            raise FrameError(
                f"frame length {length} overruns the batch at {offset}"
            )
        if kind == REC_V4:
            if length - 1 != _V4_BODY:
                raise FrameError(f"bad REC_V4 body length {length - 1}")
            (_, _, ts, src, dst, sport, dport, seq, ack, flags,
             payload_len) = _V4.unpack_from(view, offset)
            append(PacketRecord(ts, src, dst, sport, dport, seq, ack,
                                flags, payload_len))
        elif kind == REC_V6:
            if length - 1 != _V6_BODY:
                raise FrameError(f"bad REC_V6 body length {length - 1}")
            (_, _, ts, src_hi, src_lo, dst_hi, dst_lo, sport, dport, seq,
             ack, flags, payload_len) = _V6.unpack_from(view, offset)
            append(PacketRecord(ts, (src_hi << 64) | src_lo,
                                (dst_hi << 64) | dst_lo, sport, dport,
                                seq, ack, flags, payload_len, ipv6=True))
        elif kind == REC_WIRE:
            head_body = _WIRE_HEAD.size - _PREFIX.size
            if length - 1 < head_body:
                raise FrameError(f"bad REC_WIRE body length {length - 1}")
            _, _, ts, ethernet = _WIRE_HEAD.unpack_from(view, offset)
            frame = bytes(view[offset + _WIRE_HEAD.size:body_end])
            append(from_wire_bytes(frame, ts,
                                   linktype_ethernet=bool(ethernet)))
        else:
            raise FrameError(f"unknown frame type {kind} at {offset}")
        offset = body_end
    return records

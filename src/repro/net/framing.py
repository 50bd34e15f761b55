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

Two readers share one frame walk, so a damaged batch fails with the
same :class:`FrameError` on both: :func:`decode_batch` builds
:class:`~repro.net.packet.PacketRecord` objects, :func:`header_rows`
yields plain header tuples for ``Dart.process_framed``.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Optional, Tuple

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
#: The three bytes every ``REC_V4`` frame starts with.
_V4_PREFIX = _PREFIX.pack(_V4_BODY + 1, REC_V4)

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


def _walk(view: memoryview) -> Iterator[Tuple[int, int, int]]:
    """The frame walk: ``(kind, offset, body_end)`` of every frame, in
    order, each validated before it is yielded.

    The one place a batch's framing is checked: both readers below
    consume it, so a damaged batch raises the same :class:`FrameError`
    at the same frame whichever reader runs.
    """
    end = len(view)
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
        elif kind == REC_V6:
            if length - 1 != _V6_BODY:
                raise FrameError(f"bad REC_V6 body length {length - 1}")
        elif kind == REC_WIRE:
            if length - 1 < _WIRE_HEAD.size - _PREFIX.size:
                raise FrameError(f"bad REC_WIRE body length {length - 1}")
        else:
            raise FrameError(f"unknown frame type {kind} at {offset}")
        yield kind, offset, body_end
        offset = body_end


def _v6_fields(view: memoryview, offset: int) -> tuple:
    """A ``REC_V6`` frame's nine record fields, addresses rejoined."""
    (_, _, ts, src_hi, src_lo, dst_hi, dst_lo, sport, dport, seq, ack,
     flags, payload_len) = _V6.unpack_from(view, offset)
    return (ts, (src_hi << 64) | src_lo, (dst_hi << 64) | dst_lo, sport,
            dport, seq, ack, flags, payload_len)


def _wire_record(view: memoryview, offset: int,
                 body_end: int) -> Optional[PacketRecord]:
    """The full decode of a ``REC_WIRE`` frame (``None``: not TCP)."""
    _, _, ts, ethernet = _WIRE_HEAD.unpack_from(view, offset)
    return from_wire_bytes(bytes(view[offset + _WIRE_HEAD.size:body_end]),
                           ts, linktype_ethernet=bool(ethernet))


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
    records: List[Optional[PacketRecord]] = []
    append = records.append
    new = tuple.__new__
    for kind, offset, body_end in _walk(view):
        if kind == REC_V4:
            append(new(PacketRecord,
                       (*_V4.unpack_from(view, offset)[2:], False)))
        elif kind == REC_V6:
            append(new(PacketRecord, (*_v6_fields(view, offset), True)))
        else:
            append(_wire_record(view, offset, body_end))
    return records


def header_rows(payload) -> Iterable[tuple]:
    """Every TCP packet of a framed batch as one flat header tuple.

    A row is a ``REC_V4`` frame as ``_V4`` unpacks it — ``(length,
    kind, ts, src, dst, sport, dport, seq, ack, flags, payload_len)`` —
    and rows of the other frame kinds take the same shape: ``kind`` is
    ``REC_V6`` when the addresses are IPv6 and ``REC_V4`` otherwise;
    ``length`` is not meaningful.  No :class:`PacketRecord` is built
    for a packed frame.

    A batch of nothing but ``REC_V4`` frames — what the cluster ships
    for option-free IPv4/TCP traffic — is read by one
    ``_V4.iter_unpack``: when the length is a multiple of the 37-byte
    stride and every stride starts with the ``REC_V4`` prefix, the walk
    would visit exactly those offsets and find nothing to reject.  Any
    other batch is walked, and decoded, in full before this returns:
    ``REC_WIRE`` frames run :func:`~repro.net.packet.from_wire_bytes`
    (non-TCP frames yield no row), and a damaged batch raises what
    :func:`decode_batch` raises for it.
    """
    view = memoryview(payload)
    count, odd = divmod(len(view), _V4.size)
    if not odd and all(view[i::_V4.size] == _V4_PREFIX[i:i + 1] * count
                       for i in range(_PREFIX.size)):
        return _V4.iter_unpack(view)
    rows: List[tuple] = []
    append = rows.append
    for kind, offset, body_end in _walk(view):
        if kind == REC_V4:
            append(_V4.unpack_from(view, offset))
        elif kind == REC_V6:
            append((0, REC_V6, *_v6_fields(view, offset)))
        else:
            record = _wire_record(view, offset, body_end)
            if record is not None:
                append((0, REC_V6 if record.ipv6 else REC_V4,
                        record.timestamp_ns, record.src_ip, record.dst_ip,
                        record.src_port, record.dst_port, record.seq,
                        record.ack, record.flags, record.payload_len))
    return rows

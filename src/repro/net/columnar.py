"""Columnar batch decoding: raw capture frames → numpy field columns.

The wire-driven engine's per-packet cost is dominated by object decode
(one ``EthernetFrame``/``IPv4Packet``/``TcpSegment`` graph per packet).
This module lifts the decode into *one pass over a
contiguous byte buffer*: a batch of raw frames is concatenated, and the
header fields RTT matching needs (timestamp, addresses, ports, seq/ack,
flags, payload length) are gathered into numpy columns with vectorised
offset arithmetic — the same arithmetic :mod:`repro.net.scan` uses for
pre-parse shard keys, applied batch-wide.

Only the unambiguous common case is vectorised: Ethernet or raw-IP
frames carrying an option-free IPv4 header (IHL=5) and an option-free
TCP header (data offset 5).  Everything else keeps byte-identical
semantics by construction:

* frames whose headers *validate* but are not TCP (e.g. QUIC-over-UDP)
  become ``KIND_SKIP`` rows — exactly the frames the object decoder
  maps to ``None``;
* frames with IP options, TCP options, IPv6, or any header that fails
  the vectorised validity checks fall back to the reference
  :func:`~repro.net.packet.from_wire_bytes` decode, run eagerly here —
  so malformed-but-TCP frames raise the very same ``ValueError`` the
  object path raises, and well-formed oddballs become ``KIND_RECORD``
  rows carrying a real :class:`~repro.net.packet.PacketRecord`.

The one observable difference from per-frame decoding is *when* a
malformed frame raises: the columnar decoder validates a whole batch
up front, so a decode error surfaces before earlier frames in the same
batch are processed (the object path would process them first, then
die).  Both paths abort the run; no committed state diverges.

numpy is an optional dependency.  ``HAVE_NUMPY`` gates every caller;
the module itself always imports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6
from .framing import _PREFIX, _V4, _V4_BODY, _V6, _V6_BODY, _WIRE_HEAD
from .framing import REC_V4, REC_V6, REC_WIRE, FrameError
from .ipv4 import PROTO_TCP
from .packet import PacketRecord, from_wire_bytes

try:  # pragma: no cover - exercised implicitly by every fastpath test
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - CI runs both with and without
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Row kinds.  ``KIND_VEC`` rows live entirely in the columns;
#: ``KIND_SKIP`` rows are non-TCP traffic the monitors ignore (the
#: object decoder's ``None``); ``KIND_RECORD`` rows carry a fallback
#: :class:`PacketRecord` in :attr:`PacketColumns.records`.
KIND_VEC = 0
KIND_SKIP = 1
KIND_RECORD = 2

_ETH_HEADER = 14
_TCP_FLAGS_MASK = 0x01FF

#: ``framing._V4`` as a packed big-endian structured dtype, its fields
#: named (and ordered) after the :class:`PacketColumns` they fill.
_V4_ROWS = np.dtype([
    ("length", ">u2"), ("kind", "u1"), ("timestamps", ">u8"),
    ("src_ip", ">u4"), ("dst_ip", ">u4"), ("src_port", ">u2"),
    ("dst_port", ">u2"), ("seq", ">u4"), ("ack", ">u4"), ("flags", ">u2"),
    ("payload_len", ">u4"),
]) if HAVE_NUMPY else None

#: Raw wire item: ``(timestamp_ns, linktype_is_ethernet, frame_bytes)``.
WireItem = Tuple[int, bool, bytes]


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise RuntimeError(
            "the columnar fast path requires numpy; install it or use the "
            "object path"
        )


class PacketColumns:
    """One decoded batch as parallel field columns.

    All field arrays are ``int64`` of length :attr:`n` (row *i* of every
    array describes frame *i* of the input batch, in order).  Field
    values are meaningful only at ``KIND_VEC`` rows; other rows hold
    zeros except ``timestamps``, which is filled for every non-skip row
    so chunk end-times can be read without touching fallback records.
    """

    __slots__ = ("n", "kinds", "timestamps", "src_ip", "dst_ip",
                 "src_port", "dst_port", "seq", "ack", "flags",
                 "payload_len", "records", "_records_cache")

    def __init__(self, n, kinds, timestamps, src_ip, dst_ip, src_port,
                 dst_port, seq, ack, flags, payload_len,
                 records: Dict[int, PacketRecord]):
        self.n = n
        self.kinds = kinds
        self.timestamps = timestamps
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_len = payload_len
        self.records = records
        self._records_cache: Optional[List[Optional[PacketRecord]]] = None

    @classmethod
    def allocate(cls, n: int) -> "PacketColumns":
        """Zeroed columns for ``n`` rows, all marked ``KIND_SKIP``."""
        _require_numpy()
        z = [np.zeros(n, dtype=np.int64) for _ in range(9)]
        return cls(n, np.full(n, KIND_SKIP, dtype=np.uint8), *z, {})

    def decoded_count(self) -> int:
        """Rows that decoded to a packet (vectorised or fallback)."""
        return self.n - int((self.kinds == KIND_SKIP).sum())

    def last_timestamp_ns(self) -> Optional[int]:
        """Timestamp of the last decoded row, or None if all skipped."""
        decoded = np.nonzero(self.kinds != KIND_SKIP)[0]
        if decoded.size == 0:
            return None
        return int(self.timestamps[decoded[-1]])

    def to_records(self) -> List[Optional[PacketRecord]]:
        """Positional record list: ``None`` at skip rows, a
        :class:`PacketRecord` elsewhere — exactly what the object
        decoder would have produced for the same batch."""
        cached = self._records_cache
        if cached is None:
            out: List[Optional[PacketRecord]] = [None] * self.n
            ts = self.timestamps.tolist()
            src = self.src_ip.tolist()
            dst = self.dst_ip.tolist()
            sport = self.src_port.tolist()
            dport = self.dst_port.tolist()
            seq = self.seq.tolist()
            ack = self.ack.tolist()
            flags = self.flags.tolist()
            payload = self.payload_len.tolist()
            for i in np.nonzero(self.kinds == KIND_VEC)[0].tolist():
                out[i] = PacketRecord(ts[i], src[i], dst[i], sport[i],
                                      dport[i], seq[i], ack[i], flags[i],
                                      payload[i])
            for i, record in self.records.items():
                out[i] = record
            cached = self._records_cache = out
        return cached

    def compact_records(self) -> List[PacketRecord]:
        """:meth:`to_records` with the skip rows squeezed out."""
        return [r for r in self.to_records() if r is not None]


def _scan_v4_tcp(buf, starts, lens, eth):
    """Vectorised mirror of the object decode chain over raw frames.

    ``buf`` is the concatenated frame bytes; ``starts``/``lens`` locate
    each frame, ``eth`` flags Ethernet vs raw-IP link types.  Returns
    ``(kinds, src, dst, sport, dport, seq, ack, flags, payload_len)``
    where ``kinds`` marks each row ``KIND_VEC`` (option-free IPv4 TCP,
    fields valid), ``KIND_SKIP`` (the object decoder returns ``None``
    without raising), or ``KIND_RECORD`` (caller must run the object
    decoder — it may raise or return anything).

    The skip/fallback split is the equivalence argument: a row is only
    classified here when every branch the object path would take is
    decided by the very bytes this function inspects (DESIGN §15).
    """
    n = int(starts.shape[0])
    kinds = np.full(n, KIND_RECORD, dtype=np.uint8)
    zeros = np.zeros(n, dtype=np.int64)
    fields = [zeros.copy() for _ in range(8)]
    if n == 0 or buf.size == 0:
        return (kinds, *fields)
    limit = buf.size - 1

    def u8(idx):
        # Clipped gather: out-of-range offsets only occur on rows the
        # validity masks below already exclude.
        return buf[np.minimum(idx, limit)].astype(np.int64)

    starts = starts.astype(np.int64)
    lens = lens.astype(np.int64)
    raw = ~eth
    # Link layer.  Ethernet frames shorter than the header raise in the
    # object decoder → fallback.  Non-IP ethertypes and raw frames that
    # are empty or carry an unknown version nibble decode to None.
    ethertype = (u8(starts + 12) << 8) | u8(starts + 13)
    eth_ok = eth & (lens >= _ETH_HEADER)
    version_raw = u8(starts) >> 4
    skip = (
        (eth_ok & (ethertype != ETHERTYPE_IPV4)
         & (ethertype != ETHERTYPE_IPV6))
        | (raw & (lens == 0))
        | (raw & (lens > 0) & (version_raw != 4) & (version_raw != 6))
    )
    kinds[skip] = KIND_SKIP
    # IPv4 candidates.  Anything else (IPv6, short Ethernet frames,
    # IPv4-ethertype frames without a version-4 nibble, IP options)
    # stays KIND_RECORD for the object decoder.
    cand = ((eth_ok & (ethertype == ETHERTYPE_IPV4))
            | (raw & (lens > 0) & (version_raw == 4)))
    base = np.where(eth, _ETH_HEADER, 0)
    o = starts + base
    ip_len = lens - base
    total_len = (u8(o + 2) << 8) | u8(o + 3)
    # version==4 and IHL==5 in one byte; total_length within the frame.
    hdr_ok = (cand & (ip_len >= 20) & (u8(o) == 0x45)
              & (total_len >= 20) & (total_len <= ip_len))
    proto = u8(o + 9)
    # A fully valid IPv4 header that is not TCP decodes to None.
    kinds[hdr_ok & (proto != PROTO_TCP)] = KIND_SKIP
    # TCP: need the full option-free header inside the IP payload.
    t = o + 20
    tcp_len = total_len - 20
    doff_flags = (u8(t + 12) << 8) | u8(t + 13)
    vec = (hdr_ok & (proto == PROTO_TCP) & (tcp_len >= 20)
           & ((doff_flags >> 12) == 5))
    kinds[vec] = KIND_VEC

    src = (u8(o + 12) << 24) | (u8(o + 13) << 16) | (u8(o + 14) << 8) | u8(o + 15)
    dst = (u8(o + 16) << 24) | (u8(o + 17) << 16) | (u8(o + 18) << 8) | u8(o + 19)
    sport = (u8(t) << 8) | u8(t + 1)
    dport = (u8(t + 2) << 8) | u8(t + 3)
    seq = (u8(t + 4) << 24) | (u8(t + 5) << 16) | (u8(t + 6) << 8) | u8(t + 7)
    ack = (u8(t + 8) << 24) | (u8(t + 9) << 16) | (u8(t + 10) << 8) | u8(t + 11)
    flags = doff_flags & _TCP_FLAGS_MASK
    payload_len = tcp_len - 20
    out = []
    for arr in (src, dst, sport, dport, seq, ack, flags, payload_len):
        arr[~vec] = 0  # never leak garbage from invalid rows
        out.append(arr)
    return (kinds, *out)


def decode_wire_columns(items: Sequence[WireItem]) -> PacketColumns:
    """Decode a batch of raw captured frames into columns.

    ``items`` is a sequence of ``(timestamp_ns, is_ethernet, frame)``
    triples, e.g. straight off a pcap reader.  Row *i* of the result
    corresponds to ``items[i]``.
    """
    _require_numpy()
    n = len(items)
    if n == 0:
        return PacketColumns.allocate(0)
    frames = [item[2] for item in items]
    lens = np.fromiter((len(f) for f in frames), dtype=np.int64, count=n)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    buf = np.frombuffer(b"".join(frames), dtype=np.uint8)
    eth = np.fromiter((bool(item[1]) for item in items), dtype=np.bool_,
                      count=n)
    timestamps = np.fromiter((item[0] for item in items), dtype=np.int64,
                             count=n)
    (kinds, src, dst, sport, dport, seq, ack, flags,
     payload_len) = _scan_v4_tcp(buf, starts, lens, eth)
    records: Dict[int, PacketRecord] = {}
    for i in np.nonzero(kinds == KIND_RECORD)[0].tolist():
        ts_i, eth_i, frame = items[i]
        record = from_wire_bytes(frame, ts_i,
                                 linktype_ethernet=bool(eth_i))
        if record is None:
            kinds[i] = KIND_SKIP
        else:
            records[i] = record
    return PacketColumns(n, kinds, timestamps, src, dst, sport, dport,
                         seq, ack, flags, payload_len, records)


def columns_from_framed(payload) -> PacketColumns:
    """Columnar twin of :func:`repro.net.framing.decode_batch`.

    Walks the self-delimiting frame stream once (scalar — the walk is a
    couple of struct reads per frame), then extracts packed ``REC_V4``
    fields and embedded ``REC_WIRE`` frames with the same vectorised
    gathers as :func:`decode_wire_columns`.  Raises :class:`FrameError`
    for exactly the malformed batches ``decode_batch`` rejects.

    A batch of nothing but ``REC_V4`` frames — what the cluster ships
    for option-free IPv4/TCP traffic — skips the walk: when every
    ``_V4.size`` stride starts with the ``REC_V4`` prefix, the walk
    would visit exactly those offsets (each frame's length sends it to
    the next stride), so the columns are the strided fields themselves.
    """
    _require_numpy()
    view = memoryview(payload)
    end = len(view)
    if end and end % _V4.size == 0:
        rows = np.frombuffer(view, dtype=_V4_ROWS)
        if ((rows["length"] == _V4_BODY + 1) & (rows["kind"] == REC_V4)).all():
            n = rows.shape[0]
            return PacketColumns(
                n, np.full(n, KIND_VEC, dtype=np.uint8),
                *(rows[name].astype(np.int64) for name in _V4_ROWS.names[2:]),
                {})
    buf = np.frombuffer(view, dtype=np.uint8)
    v4_pos: List[int] = []
    v4_off: List[int] = []
    v6_pos: List[int] = []
    wire_pos: List[int] = []
    wire_start: List[int] = []
    wire_len: List[int] = []
    wire_eth: List[bool] = []
    wire_ts: List[int] = []
    records: Dict[int, PacketRecord] = {}
    record_ts: List[Tuple[int, int]] = []
    offset = 0
    index = 0
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
            v4_pos.append(index)
            v4_off.append(offset)
        elif kind == REC_V6:
            if length - 1 != _V6_BODY:
                raise FrameError(f"bad REC_V6 body length {length - 1}")
            (_, _, ts, src_hi, src_lo, dst_hi, dst_lo, sport, dport, seq,
             ack, flags, payload_len) = _V6.unpack_from(view, offset)
            records[index] = PacketRecord(
                ts, (src_hi << 64) | src_lo, (dst_hi << 64) | dst_lo,
                sport, dport, seq, ack, flags, payload_len, ipv6=True)
            record_ts.append((index, ts))
            v6_pos.append(index)
        elif kind == REC_WIRE:
            head_body = _WIRE_HEAD.size - _PREFIX.size
            if length - 1 < head_body:
                raise FrameError(f"bad REC_WIRE body length {length - 1}")
            _, _, ts, ethernet = _WIRE_HEAD.unpack_from(view, offset)
            wire_pos.append(index)
            wire_start.append(offset + _WIRE_HEAD.size)
            wire_len.append(body_end - offset - _WIRE_HEAD.size)
            wire_eth.append(bool(ethernet))
            wire_ts.append(ts)
        else:
            raise FrameError(f"unknown frame type {kind} at {offset}")
        offset = body_end
        index += 1

    cols = PacketColumns.allocate(index)
    kinds = cols.kinds
    if v4_pos:
        p = np.array(v4_pos, dtype=np.int64)
        o = np.array(v4_off, dtype=np.int64)
        rows = buf[o[:, None] + np.arange(_V4.size)].view(_V4_ROWS).ravel()
        kinds[p] = KIND_VEC
        for name in _V4_ROWS.names[2:]:
            getattr(cols, name)[p] = rows[name]
    if wire_pos:
        p = np.array(wire_pos, dtype=np.int64)
        (kw, src, dst, sport, dport, seq, ack, flags,
         payload_len) = _scan_v4_tcp(
            buf,
            np.array(wire_start, dtype=np.int64),
            np.array(wire_len, dtype=np.int64),
            np.array(wire_eth, dtype=np.bool_),
        )
        kinds[p] = kw
        cols.timestamps[p] = np.array(wire_ts, dtype=np.int64)
        cols.src_ip[p] = src
        cols.dst_ip[p] = dst
        cols.src_port[p] = sport
        cols.dst_port[p] = dport
        cols.seq[p] = seq
        cols.ack[p] = ack
        cols.flags[p] = flags
        cols.payload_len[p] = payload_len
        for j in np.nonzero(kw == KIND_RECORD)[0].tolist():
            i = wire_pos[j]
            frame = bytes(view[wire_start[j]:wire_start[j] + wire_len[j]])
            record = from_wire_bytes(frame, wire_ts[j],
                                     linktype_ethernet=wire_eth[j])
            if record is None:
                kinds[i] = KIND_SKIP
            else:
                records[i] = record
    if v6_pos:
        kinds[np.array(v6_pos, dtype=np.int64)] = KIND_RECORD
    for i, ts in record_ts:
        cols.timestamps[i] = ts
    cols.records = records
    return cols


def records_to_columns(
    records: Iterable[Optional[PacketRecord]],
) -> PacketColumns:
    """Columns from already-parsed records (``None`` entries allowed).

    IPv4 records become vectorised rows; IPv6 records ride along as
    fallback rows; ``None`` becomes a skip row.  Useful when a record
    stream exists but the columnar classify/mutate split is still
    wanted (benchmark harnesses, tests).
    """
    _require_numpy()
    items = list(records)
    n = len(items)
    kinds = [KIND_SKIP] * n
    ts = [0] * n
    src = [0] * n
    dst = [0] * n
    sport = [0] * n
    dport = [0] * n
    seq = [0] * n
    ack = [0] * n
    flags = [0] * n
    payload_len = [0] * n
    fallback: Dict[int, PacketRecord] = {}
    for i, record in enumerate(items):
        if record is None:
            continue
        ts[i] = record.timestamp_ns
        if record.ipv6:
            kinds[i] = KIND_RECORD
            fallback[i] = record
            continue
        kinds[i] = KIND_VEC
        src[i] = record.src_ip
        dst[i] = record.dst_ip
        sport[i] = record.src_port
        dport[i] = record.dst_port
        seq[i] = record.seq
        ack[i] = record.ack
        flags[i] = record.flags
        payload_len[i] = record.payload_len
    return PacketColumns(
        n,
        np.array(kinds, dtype=np.uint8),
        np.array(ts, dtype=np.int64),
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(sport, dtype=np.int64),
        np.array(dport, dtype=np.int64),
        np.array(seq, dtype=np.int64),
        np.array(ack, dtype=np.int64),
        np.array(flags, dtype=np.int64),
        np.array(payload_len, dtype=np.int64),
        fallback,
    )

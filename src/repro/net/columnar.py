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
                out[i] = tuple.__new__(PacketRecord, (
                    ts[i], src[i], dst[i], sport[i], dport[i], seq[i],
                    ack[i], flags[i], payload[i], False))
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

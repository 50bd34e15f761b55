"""Vectorised classification: role bits and expected ACKs as columns.

:meth:`Dart.process_columns <repro.core.pipeline.Dart.process_columns>`
calls :func:`roles` and :func:`eack_values` once per decoded
:class:`~repro.net.columnar.PacketColumns` batch and feeds the kernel
one row per packet from them.  That is all of the classifier: no hash
is computed here for the kernel.  Each table's key is hashed where the
table is, on every entry point — the RT's once per ``FlowKey``, which
caches it, the PT's ``(signature, eack)`` once per insertion or match
pass; hash columns built per batch cost what they saved (DESIGN §15).

:func:`flow_crcs`, :func:`signatures`, :func:`mix32` and
:func:`pt_match_crcs` — vector twins of :mod:`repro.core.hashing`,
pinned bit-for-bit by ``tests/net/test_columnar.py`` — have no caller
under ``src/``.  They stay as definitions because ``benchmarks/e2e``
patches them by name in every traced pass; ROADMAP lists them as
pending a ``benchmark`` PR.

Values at non-``KIND_VEC`` rows are well-defined (the columns hold
zeros there) but meaningless; callers mask by row kind.
"""

from __future__ import annotations

from ..core.pipeline import FLAG_ROLES
from ..net.columnar import HAVE_NUMPY, PacketColumns

if HAVE_NUMPY:
    import numpy as np
else:  # pragma: no cover - exercised only in numpy-free environments
    np = None  # type: ignore[assignment]


def roles(cols: PacketColumns):
    """``ROLE_*`` bits per row: :data:`~repro.core.pipeline.FLAG_ROLES`
    by flag byte, plus the data role for a payload (``ROLE_DATA`` is 1,
    so the boolean ORs in as is)."""
    return np.array(FLAG_ROLES)[cols.flags & 0xFF] | (cols.payload_len > 0)


def eack_values(cols: PacketColumns):
    """Expected-ACK column: ``(seq + payload + SYN + FIN) mod 2^32``
    (``PacketRecord.eack``)."""
    syn_fin = (cols.flags & 0x02 != 0).astype(np.int64) \
        + (cols.flags & 0x01 != 0).astype(np.int64)
    return (cols.seq + cols.payload_len + syn_fin) & 0xFFFFFFFF


# -- Hash columns: no caller under src/ (see the module docstring) -----------

#: Salt of :func:`repro.core.hashing.signature32`.
SIGNATURE_SALT = 0x5A17ECAF

_CRC_TABLE = None


def _crc_table():
    """The reflected CRC-32 (poly 0xEDB88320) byte table, built lazily
    so the module imports without numpy."""
    global _CRC_TABLE
    if _CRC_TABLE is None:
        crc = np.arange(256, dtype=np.uint32)
        one = np.uint32(1)
        poly = np.uint32(0xEDB88320)
        for _ in range(8):
            crc = np.where(crc & one, (crc >> one) ^ poly, crc >> one)
        _CRC_TABLE = crc
    return _CRC_TABLE


def crc32_columns(byte_columns, salt: int = 0):
    """Row-wise ``zlib.crc32(bytes, salt)`` over parallel byte columns.

    ``byte_columns[j]`` holds byte *j* of every row's input string, so
    a batch of equal-length keys CRCs in ``len(byte_columns)`` table
    lookups total instead of one Python-level call per row.
    """
    table = _crc_table()
    n = byte_columns[0].shape[0]
    mask = np.uint32(0xFF)
    crc = np.full(n, (salt ^ 0xFFFFFFFF) & 0xFFFFFFFF, dtype=np.uint32)
    for column in byte_columns:
        crc = (crc >> np.uint32(8)) ^ table[(crc ^ column.astype(np.uint32)) & mask]
    return crc ^ np.uint32(0xFFFFFFFF)


def _key_byte_columns(src, dst, sport, dport):
    """The 12 byte columns of the paper's IPv4 flow-key layout
    (``FlowKey.key_bytes``: src, dst big-endian u32; ports u16)."""
    return [
        (src >> 24) & 0xFF, (src >> 16) & 0xFF, (src >> 8) & 0xFF, src & 0xFF,
        (dst >> 24) & 0xFF, (dst >> 16) & 0xFF, (dst >> 8) & 0xFF, dst & 0xFF,
        (sport >> 8) & 0xFF, sport & 0xFF,
        (dport >> 8) & 0xFF, dport & 0xFF,
    ]


def flow_crcs(cols: PacketColumns, reverse: bool = False):
    """``FlowKey.key_crc`` (unsalted CRC32 of the key bytes) per row.

    ``reverse=False`` hashes the tuple as it appears in the columns
    (the SEQ-direction flow of a data packet); ``reverse=True`` hashes
    the reversed tuple (the SEQ-direction flow an ACK acknowledges —
    ``ack_target_flow``).
    """
    if reverse:
        columns = _key_byte_columns(cols.dst_ip, cols.src_ip,
                                    cols.dst_port, cols.src_port)
    else:
        columns = _key_byte_columns(cols.src_ip, cols.dst_ip,
                                    cols.src_port, cols.dst_port)
    return crc32_columns(columns)


def signatures(cols: PacketColumns, reverse: bool = False):
    """``FlowKey.signature`` (salted CRC32) per row; ``reverse`` as in
    :func:`flow_crcs`."""
    if reverse:
        columns = _key_byte_columns(cols.dst_ip, cols.src_ip,
                                    cols.dst_port, cols.src_port)
    else:
        columns = _key_byte_columns(cols.src_ip, cols.dst_ip,
                                    cols.src_port, cols.dst_port)
    return crc32_columns(columns, SIGNATURE_SALT)


def pt_match_crcs(signature_col, acks):
    """CRC32 of ``pack2_u32(signature, ack)`` per row — the Packet
    Tracker's ACK-side lookup key (``StagedPacketTable.match_ack``)."""
    sig = signature_col.astype(np.int64)
    ack = acks.astype(np.int64)
    return crc32_columns([
        (sig >> 24) & 0xFF, (sig >> 16) & 0xFF, (sig >> 8) & 0xFF, sig & 0xFF,
        (ack >> 24) & 0xFF, (ack >> 16) & 0xFF, (ack >> 8) & 0xFF, ack & 0xFF,
    ])


def mix32(x):
    """Vectorised murmur3 32-bit finalizer (``hashing._mix32``).

    Works in uint64 for the multiplies — a uint32 product would wrap
    with overflow warnings; masking a 64-bit product is exact.
    """
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(0x85EBCA6B)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(13)
    x = (x * np.uint64(0xC2B2AE35)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    return x.astype(np.uint32)

"""Vectorised classification: flow hashes and stage indices as columns.

The scalar hot path spends most of its non-decode time hashing flow
keys (:mod:`repro.core.hashing`): an unsalted CRC32 for table indices,
a salted CRC32 signature, the murmur3 finalizer per stage probe, and a
canonical-key CRC for sharding.  Every one of those is fixed-layout
byte arithmetic over the 12-byte IPv4 key — exactly what vectorises.

This module computes the same values over whole
:class:`~repro.net.columnar.PacketColumns` batches.  Each function is
pinned bit-for-bit against its scalar twin by hypothesis properties
(``tests/net/test_columnar.py``); the pipeline's columnar loop then
*pre-fills* the lazy ``FlowKey`` caches with these columns, so the
scalar mutation stage never computes a hash per packet.

Values at non-``KIND_VEC`` rows are well-defined (the columns hold
zeros there) but meaningless; callers mask by row kind.
"""

from __future__ import annotations

from ..core.hashing import _STAGE_SALTS, MAX_STAGES
from ..core.pipeline import FLAG_ROLES
from ..net.columnar import HAVE_NUMPY, PacketColumns

if HAVE_NUMPY:
    import numpy as np
else:  # pragma: no cover - exercised only in numpy-free environments
    np = None  # type: ignore[assignment]

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


def canonical_key_crcs(cols: PacketColumns, salt: int = 0):
    """CRC32 of the *canonical* (direction-independent) key per row —
    the hash :func:`repro.cluster.sharding.shard_of_flow` uses."""
    swap = ((cols.src_ip > cols.dst_ip)
            | ((cols.src_ip == cols.dst_ip)
               & (cols.src_port > cols.dst_port)))
    src = np.where(swap, cols.dst_ip, cols.src_ip)
    dst = np.where(swap, cols.src_ip, cols.dst_ip)
    sport = np.where(swap, cols.dst_port, cols.src_port)
    dport = np.where(swap, cols.src_port, cols.dst_port)
    return crc32_columns(_key_byte_columns(src, dst, sport, dport), salt)


def shard_indices(cols: PacketColumns, shards: int, salt: int):
    """Shard index per row: salted canonical-key CRC modulo ``shards``."""
    return canonical_key_crcs(cols, salt) % np.uint32(shards)


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


def stage_indices(key_crcs, stage: int, table_size: int):
    """Vector twin of :func:`repro.core.hashing.stage_index_from_crc`."""
    if not 0 <= stage < MAX_STAGES:
        raise ValueError(f"stage {stage} out of range (max {MAX_STAGES})")
    if table_size <= 0:
        raise ValueError("table size must be positive")
    salted = key_crcs.astype(np.uint32) ^ np.uint32(_STAGE_SALTS[stage])
    return mix32(salted) % np.uint32(table_size)


def rt_stage_indices(cols: PacketColumns, table_size: int):
    """Range Tracker slot candidates (stage 0) for every row."""
    return stage_indices(flow_crcs(cols), 0, table_size)


def pt_stage_candidates(cols: PacketColumns, stages: int, table_size: int):
    """Packet Tracker slot candidates, one row of indices per stage
    (shape ``(stages, n)``) — the insertion loop's probe sequence."""
    crcs = flow_crcs(cols)
    return np.stack([stage_indices(crcs, s, table_size)
                     for s in range(stages)])


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

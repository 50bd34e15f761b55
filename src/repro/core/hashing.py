"""Deterministic hash functions modelling the Tofino's hash units.

Dart compresses the 12-byte IPv4 flow 4-tuple into a fixed 4-byte
*signature* (paper §4, "constrained signature wordsize") and indexes its
register tables with independent hash functions — one per table stage.
We model both with salted CRC32 (the Tofino's hash units are CRC-based),
which is deterministic across runs and processes, unlike Python's builtin
``hash``.
"""

from __future__ import annotations

import struct
import zlib

_STAGE_SALTS = (
    0x00000000,
    0x9E3779B9,
    0x85EBCA6B,
    0xC2B2AE35,
    0x27D4EB2F,
    0x165667B1,
    0xD3A2646C,
    0xFD7046C5,
    0xB55A4F09,
    0x2E1B2138,
    0x4CF5AD43,
    0x62A9C1D8,
    0x68E31DA4,
    0xC4CEB9FE,
    0x1B873593,
    0xE6546B64,
)

MAX_STAGES = len(_STAGE_SALTS)


def crc32_hash(data: bytes, salt: int = 0) -> int:
    """Salted CRC32 of ``data``, as an unsigned 32-bit integer."""
    return zlib.crc32(data, salt & 0xFFFFFFFF) & 0xFFFFFFFF


def signature32(data: bytes) -> int:
    """The 4-byte flow signature stored in RT/PT records (paper §4).

    Distinct flows can collide (the paper accepts this, noting collisions
    are rare); tests exercise both the collision-free common case and
    deliberately colliding keys.
    """
    return crc32_hash(data, 0x5A17ECAF)


def _mix32(x: int) -> int:
    """murmur3's 32-bit finalizer: a full-avalanche integer mix."""
    x &= 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x


def stage_index(key: bytes, stage: int, table_size: int) -> int:
    """Index of ``key`` in the given table stage.

    The Tofino's hash units use *different CRC polynomials*, giving
    genuinely independent functions per stage.  A salted CRC32 is NOT an
    adequate model: CRC is linear, so two keys that collide under one
    salt collide under every salt.  We emulate polynomial diversity by
    xoring a per-stage salt into the CRC and running a full-avalanche
    finalizer, which decorrelates the stages.

    ``table_size`` need not be a power of two, but Dart's configurations
    always use one (register arrays are indexed by hash-bit slices).
    ``StagedPacketTable.insert``/``match_ack`` write this function out in
    line, one CRC per pass and the salt and mix per stage.
    """
    if not 0 <= stage < MAX_STAGES:
        raise ValueError(f"stage {stage} out of range (max {MAX_STAGES})")
    if table_size <= 0:
        raise ValueError("table size must be positive")
    return _mix32(zlib.crc32(key) ^ _STAGE_SALTS[stage]) % table_size


def pack_u32(*values: int) -> bytes:
    """Pack 32-bit values into a hash-input byte string."""
    return struct.pack(f"!{len(values)}I", *(v & 0xFFFFFFFF for v in values))


#: Prebound packer for the PT's two-word ``(signature, eack)`` key — the
#: single hottest ``pack_u32`` call site, worth skipping the format-string
#: dispatch for.
pack2_u32 = struct.Struct("!2I").pack

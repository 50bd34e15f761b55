"""Versioned, self-validating checkpoint files for streaming runs.

A checkpoint is everything a fresh process needs to continue a run
sample-for-sample: the pickled monitor objects (hashed tracker tables
as rows of their live entries, recirculation queues, open analytics
windows and all), the source resume offset, and the byte offsets of
every output file.  The file layout is::

    8 bytes   magic  b"DARTCKPT"
    4 bytes   header length (big-endian)
    N bytes   JSON header
    M bytes   pickle payload

The JSON header carries the schema tag, the payload length and SHA-256,
and the structured resume metadata (source / sinks / runner progress).
Keeping the metadata in JSON means an operator can inspect a checkpoint
with ``dart-stream --inspect`` (or three lines of Python) without
unpickling anything, and the loader can reject corrupt or incompatible
files *before* touching the pickle.

Versioning: :data:`SCHEMA` is bumped whenever the payload structure or
monitor pickle layout changes incompatibly (``/2``: tables as rows;
``/3``: the distribution stage as per-key registers; ``/4``: table
rows and ``DartStats`` without the duplicate tracker counters;
``/5``: the monitor's leg filter as a ``LegFilter`` over an
``InternalNetwork``).
A mismatch raises :class:`CheckpointSchemaMismatch` — resuming across
versions is refused rather than migrated, because a half-restored
tracker table corrupts silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, Union

PathLike = Union[str, Path]

MAGIC = b"DARTCKPT"
SCHEMA = "dart-stream-checkpoint/5"

_HEADER_LEN = struct.Struct(">I")

#: Refuse to parse absurd header lengths (a corrupt length field would
#: otherwise make the loader try to slurp gigabytes of "header").
_MAX_HEADER_BYTES = 1 << 20


class CheckpointError(Exception):
    """Base class for checkpoint load/store failures."""


class CheckpointCorrupt(CheckpointError):
    """The file is not a checkpoint, or its contents fail validation."""


class CheckpointSchemaMismatch(CheckpointError):
    """The checkpoint was written by an incompatible schema version."""


@dataclass(slots=True)
class Checkpoint:
    """One loaded checkpoint: inspectable header + unpickled payload."""

    header: Dict[str, Any]
    payload: Any

    @property
    def finalized(self) -> bool:
        return bool(self.header.get("finalized", False))


def write_checkpoint(path: PathLike, payload: Any,
                     meta: Dict[str, Any]) -> Dict[str, Any]:
    """Atomically write a checkpoint; returns the header written.

    ``meta`` is merged into the header (source/sinks/runner state,
    ``finalized`` flag).  The write goes to ``<path>.tmp`` first, is
    fsynced, and lands with ``os.replace`` — a crash mid-write leaves
    the previous checkpoint intact, never a half-written one.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header: Dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix_ns": time.time_ns(),
        "payload_len": len(blob),
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
    }
    header.update(meta)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as stream:
        stream.write(MAGIC)
        stream.write(_HEADER_LEN.pack(len(header_bytes)))
        stream.write(header_bytes)
        stream.write(blob)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
    return header


def read_header(path: PathLike) -> Dict[str, Any]:
    """Parse and validate only the JSON header (no unpickling).

    The inspection path: cheap, and safe on untrusted files — nothing
    in the payload is executed.
    """
    with open(path, "rb") as stream:
        return _read_header(stream, path)


def _read_header(stream: BinaryIO, path: PathLike) -> Dict[str, Any]:
    """The validated header of an open checkpoint, leaving ``stream``
    at the first payload byte."""
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointCorrupt(
            f"{path}: not a checkpoint file (bad magic {magic!r})"
        )
    len_bytes = stream.read(_HEADER_LEN.size)
    if len(len_bytes) < _HEADER_LEN.size:
        raise CheckpointCorrupt(f"{path}: truncated header length")
    (header_len,) = _HEADER_LEN.unpack(len_bytes)
    if header_len > _MAX_HEADER_BYTES:
        raise CheckpointCorrupt(
            f"{path}: implausible header length {header_len}"
        )
    header_bytes = stream.read(header_len)
    if len(header_bytes) < header_len:
        raise CheckpointCorrupt(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise CheckpointCorrupt(f"{path}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointCorrupt(f"{path}: header is not a JSON object")
    schema = header.get("schema")
    if schema != SCHEMA:
        raise CheckpointSchemaMismatch(
            f"{path}: written by schema {schema!r}, this build reads "
            f"{SCHEMA!r}"
        )
    return header


def read_checkpoint(path: PathLike) -> Checkpoint:
    """Load and fully validate a checkpoint.

    Raises :class:`CheckpointCorrupt` when the payload length or digest
    disagrees with the header (torn write, bit rot), and
    :class:`CheckpointSchemaMismatch` across incompatible versions.
    """
    # One handle for header and payload: a live daemon's os.replace
    # between two opens would pair an old header with a new payload.
    with open(path, "rb") as stream:
        header = _read_header(stream, path)
        blob = stream.read()
    expected_len = header.get("payload_len")
    if expected_len != len(blob):
        raise CheckpointCorrupt(
            f"{path}: payload is {len(blob)} bytes, header says "
            f"{expected_len}"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointCorrupt(f"{path}: payload digest mismatch")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointCorrupt(
            f"{path}: payload failed to unpickle: {exc}"
        ) from exc
    return Checkpoint(header=header, payload=payload)

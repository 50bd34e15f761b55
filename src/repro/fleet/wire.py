"""The fleet wire protocol: versioned, length-prefixed, self-validating.

Agents and the collector speak *frames* over a byte stream (TCP or a
unix socket).  A frame mirrors the ``DARTCKPT`` checkpoint layout so an
operator who can read one can read the other::

    8 bytes   magic  b"DARTFLT1"
    4 bytes   header length (big-endian)
    N bytes   JSON header
    M bytes   JSON payload (UTF-8; may be empty)

The JSON header carries the schema tag, the frame kind, the sending
agent's identity and ``(epoch, seq)`` ordering stamp, and the payload
length and SHA-256 — so the receiver rejects torn or corrupt frames
*before* parsing the payload, and a packet capture of the link is
inspectable with three lines of Python.

Unlike the checkpoint file (whose payload is a pickle read back by the
same build that wrote it), frame payloads are **JSON only**: deltas
cross host boundaries between processes that may not share a code
version, and unpickling network input is how monitoring systems become
remote-code-execution systems.  Each object a delta carries brings
its own JSON-safe state: a stats object's ``to_state``, the
distribution stage's ``state`` (its per-key registers), the telemetry
registry's ``to_wire``, and the analytics key codec of
:mod:`repro.core.analytics`.  This module adds the stats type tag
(:func:`stats_to_wire`), the closed-window codec
(:func:`window_to_wire`), and :func:`decode_delta`, which decodes every
part of a delta or refuses the whole frame as :class:`FrameCorrupt`.

Versioning: :data:`WIRE_SCHEMA` is bumped on incompatible changes; a
mismatch raises :class:`WireSchemaMismatch` at the receiving end —
merging deltas across incompatible layouts is refused, not guessed at.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from ..baselines.dapper import DapperStats
from ..baselines.strawman import StrawmanStats
from ..baselines.tcptrace import TcpTraceStats
from ..core.analytics import WindowMinimum, key_from_wire, key_to_wire
from ..core.hist import DistributionAnalytics
from ..core.pipeline import DartStats
from ..core.stats import natural
from ..obs.metrics import MetricsRegistry
from ..quic.monitor import SpinBitStats

MAGIC = b"DARTFLT1"
WIRE_SCHEMA = "dart-fleet-wire/2"

#: Frame kinds an agent may send.  ``hello`` opens a session, ``delta``
#: carries cumulative monitor state, ``heartbeat`` proves liveness
#: between pushes, ``bye`` announces a *clean* departure (a connection
#: that drops without one is agent churn and accounted loudly).
FRAME_KINDS = ("hello", "delta", "heartbeat", "bye")

_HEADER_LEN = struct.Struct(">I")

#: Reject absurd lengths before allocating: a corrupt length field must
#: not make the reader slurp gigabytes.
_MAX_HEADER_BYTES = 1 << 20
_MAX_PAYLOAD_BYTES = 1 << 28


class WireError(Exception):
    """Base class for fleet wire failures."""


class FrameCorrupt(WireError):
    """The byte stream is not a frame, or fails validation."""


class WireSchemaMismatch(WireError):
    """The peer speaks an incompatible wire schema version."""


@dataclass(slots=True)
class Frame:
    """One decoded frame: validated header + parsed payload."""

    header: Dict[str, Any]
    payload: Dict[str, Any]

    @property
    def kind(self) -> str:
        return self.header.get("kind", "")

    @property
    def agent(self) -> str:
        return self.header.get("agent", "")

    @property
    def epoch(self) -> int:
        return int(self.header.get("epoch", 0))

    @property
    def seq(self) -> int:
        return int(self.header.get("seq", 0))

    @property
    def stamp(self) -> Tuple[int, int]:
        """The ``(epoch, seq)`` ordering stamp staleness checks compare."""
        return (self.epoch, self.seq)


def encode_frame(kind: str, *, agent: str, epoch: int, seq: int,
                 payload: Optional[Dict[str, Any]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize one frame to bytes ready for ``sendall``."""
    if kind not in FRAME_KINDS:
        raise ValueError(f"unknown frame kind {kind!r}")
    blob = b"" if payload is None else json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    header: Dict[str, Any] = {
        "schema": WIRE_SCHEMA,
        "kind": kind,
        "agent": agent,
        "epoch": epoch,
        "seq": seq,
        "payload_len": len(blob),
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
    }
    if meta:
        header.update(meta)
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return MAGIC + _HEADER_LEN.pack(len(header_bytes)) + header_bytes + blob


def _read_exact(reader, n: int) -> bytes:
    """Read exactly ``n`` bytes; short reads mean a truncated frame."""
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = reader.read(remaining)
        if not chunk:
            raise FrameCorrupt(
                f"stream truncated mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(reader) -> Optional[Frame]:
    """Read and validate one frame from a binary file-like object.

    Returns ``None`` on a clean end-of-stream at a frame boundary (the
    peer closed between frames); raises :class:`FrameCorrupt` when the
    stream dies mid-frame or fails validation, and
    :class:`WireSchemaMismatch` across incompatible versions.
    """
    magic = reader.read(len(MAGIC))
    if not magic:
        return None
    if len(magic) < len(MAGIC) or magic != MAGIC:
        raise FrameCorrupt(f"bad frame magic {magic!r}")
    (header_len,) = _HEADER_LEN.unpack(_read_exact(reader, _HEADER_LEN.size))
    if header_len > _MAX_HEADER_BYTES:
        raise FrameCorrupt(f"implausible header length {header_len}")
    try:
        header = json.loads(_read_exact(reader, header_len))
    except ValueError as exc:
        raise FrameCorrupt(f"frame header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameCorrupt("frame header is not a JSON object")
    schema = header.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireSchemaMismatch(
            f"peer speaks schema {schema!r}, this build speaks "
            f"{WIRE_SCHEMA!r}"
        )
    if header.get("kind") not in FRAME_KINDS:
        raise FrameCorrupt(f"unknown frame kind {header.get('kind')!r}")
    payload_len = header.get("payload_len")
    if not isinstance(payload_len, int) or payload_len < 0 \
            or payload_len > _MAX_PAYLOAD_BYTES:
        raise FrameCorrupt(f"implausible payload length {payload_len!r}")
    blob = _read_exact(reader, payload_len) if payload_len else b""
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("payload_sha256"):
        raise FrameCorrupt("payload digest mismatch (torn or corrupt frame)")
    if not blob:
        return Frame(header=header, payload={})
    try:
        payload = json.loads(blob)
    except ValueError as exc:
        raise FrameCorrupt(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameCorrupt("frame payload is not a JSON object")
    return Frame(header=header, payload=payload)


# -- window codec -------------------------------------------------------------

def window_to_wire(window: WindowMinimum) -> Dict[str, Any]:
    """Encode one closed analytics window."""
    return {
        "key": key_to_wire(window.key),
        "window": window.window_index,
        "min_rtt_ns": window.min_rtt_ns,
        "samples": window.sample_count,
        "closed_at_ns": window.closed_at_ns,
    }


def window_from_wire(wire: Dict[str, Any]) -> WindowMinimum:
    """Decode :func:`window_to_wire` output."""
    return WindowMinimum(
        key=key_from_wire(wire["key"]),
        window_index=int(wire["window"]),
        min_rtt_ns=int(wire["min_rtt_ns"]),
        sample_count=int(wire["samples"]),
        closed_at_ns=int(wire["closed_at_ns"]),
    )


# -- stats codec: the stats object's own state under its type name, which
# the receiver resolves against this registry, never an import path.

STATS_TYPES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (DartStats, TcpTraceStats, StrawmanStats, DapperStats,
                SpinBitStats)
}


def stats_to_wire(stats: Any) -> Dict[str, Any]:
    """Encode a monitor stats object as a JSON-safe tagged object."""
    name = type(stats).__name__
    if STATS_TYPES.get(name) is not type(stats):
        known = ", ".join(sorted(STATS_TYPES))
        raise ValueError(
            f"cannot encode stats of type {name!r} (known: {known})"
        )
    return {"type": name, "fields": stats.to_state()}


def stats_from_wire(wire: Dict[str, Any]) -> Any:
    """Decode :func:`stats_to_wire` output into a fresh stats object."""
    cls = STATS_TYPES.get(wire["type"])
    if cls is None:
        known = ", ".join(sorted(STATS_TYPES))
        raise ValueError(f"unknown stats type {wire['type']!r} on the "
                         f"wire (known: {known})")
    return cls.from_state(wire["fields"])


# -- delta --------------------------------------------------------------------

#: The parts of a delta that replace what the agent sent before, each
#: with its decoder.  A part that is absent or null is kept as it was.
_PARTS = {
    "stats": stats_from_wire,
    "records": natural,
    "windows_closed": natural,
    "telemetry": MetricsRegistry.from_wire,
    "distribution": DistributionAnalytics.from_state,
}


def decode_delta(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Decode every part of a delta payload, or refuse it whole.

    Returns the :data:`_PARTS` the payload carries, decoded, plus
    ``monitor``, ``final``, ``flows`` as ``(key, count)`` pairs and
    ``windows`` as :class:`WindowMinimum`.  Any malformed part raises
    :class:`FrameCorrupt`, so a caller that decodes before applying
    never applies half a delta.
    """
    try:
        delta = {name: decode(payload[name])
                 for name, decode in _PARTS.items()
                 if payload.get(name) is not None}
        delta["monitor"] = str(payload.get("monitor", "dart"))
        delta["final"] = bool(payload.get("final"))
        delta["flows"] = [(key_from_wire(key), natural(count))
                          for key, count in payload.get("flows", ())]
        delta["windows"] = [window_from_wire(w)
                            for w in payload.get("windows", ())]
        return delta
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FrameCorrupt(f"malformed delta payload: {exc!r}") from exc

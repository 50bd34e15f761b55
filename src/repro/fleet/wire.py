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
remote-code-execution systems.  This module therefore also owns the
wire codecs for the objects deltas carry: analytics window keys
(:func:`key_to_wire`), closed windows (:func:`window_to_wire`), and
monitor stats dataclasses (:func:`stats_to_wire`, with enum-keyed
verdict histograms flattened to their string values).

Versioning: :data:`WIRE_SCHEMA` is bumped on incompatible changes; a
mismatch raises :class:`WireSchemaMismatch` at the receiving end —
merging deltas across incompatible layouts is refused, not guessed at.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from ..analysis.sketch import QuantileSketch
from ..baselines.dapper import DapperStats
from ..baselines.strawman import StrawmanStats
from ..baselines.tcptrace import TcpTraceStats
from ..core.analytics import DstPrefixKey, WindowMinimum, flow_key
from ..core.flow import FlowKey, intern_flow
from ..core.hist import DistributionAnalytics, RttHistogram
from ..core.pipeline import DartStats
from ..core.range_tracker import AckVerdict, SeqVerdict
from ..quic.monitor import SpinBitStats

MAGIC = b"DARTFLT1"
WIRE_SCHEMA = "dart-fleet-wire/1"

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


# -- analytics key codec ------------------------------------------------------
#
# MinFilterAnalytics keys are heterogeneous: flow 4-tuples (the default
# key_fn), bare ints (DstPrefixKey prefixes), or strings (the detector's
# "all").  Each wire form is a small tagged object so the receiving side
# reconstructs the *same* key type — flow keys must compare equal to
# locally interned ones for the dedup registry to work.

def key_to_wire(key: Any) -> Dict[str, Any]:
    """Encode one analytics/flow key as a JSON-safe tagged object."""
    if isinstance(key, FlowKey):
        return {
            "t": "flow",
            "src": key.src_ip,
            "dst": key.dst_ip,
            "sport": key.src_port,
            "dport": key.dst_port,
            "v6": key.ipv6,
        }
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise ValueError(
            f"cannot encode analytics key of type {type(key).__name__!r} "
            "(flow keys, ints, and strings cross the wire)"
        )
    if isinstance(key, int):
        return {"t": "int", "v": key}
    return {"t": "str", "v": key}


def key_from_wire(wire: Dict[str, Any]) -> Any:
    """Decode :func:`key_to_wire` output back into the original key."""
    tag = wire.get("t")
    if tag == "flow":
        # intern_flow so a decoded key is identical (not just equal) to
        # the locally interned object for the same 4-tuple.
        return intern_flow(int(wire["src"]), int(wire["dst"]),
                           int(wire["sport"]), int(wire["dport"]),
                           bool(wire.get("v6", False)))
    if tag == "int":
        return int(wire["v"])
    if tag == "str":
        return str(wire["v"])
    raise FrameCorrupt(f"unknown key tag {tag!r}")


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


# -- distribution codec -------------------------------------------------------
#
# Histogram/sketch analytics snapshots ride delta payloads as cumulative
# state: the collector keeps the latest per agent (replacement under the
# (epoch, seq) stamp) and sums across agents, exactly like stats.  The
# key function crosses as a small tagged object because the receiving
# side must rebuild a *mergeable* stage — merging stages keyed
# differently is refused, and that check needs the key function.

def _key_fn_to_wire(key_fn: Any) -> Dict[str, Any]:
    if key_fn is flow_key:
        return {"t": "flow_fn"}
    if isinstance(key_fn, DstPrefixKey):
        return {"t": "prefix_fn", "len": key_fn.prefix_len}
    raise ValueError(
        f"cannot encode key function {key_fn!r} (flow_key and "
        "DstPrefixKey cross the wire)"
    )


def _key_fn_from_wire(wire: Dict[str, Any]) -> Any:
    tag = wire.get("t")
    if tag == "flow_fn":
        return flow_key
    if tag == "prefix_fn":
        return DstPrefixKey(int(wire["len"]))
    raise FrameCorrupt(f"unknown key-function tag {tag!r}")


def _sorted_keyed_states(per_key: Dict[Any, Any]) -> List[List[Any]]:
    """Deterministic [[key_wire, state], ...] (sorted by encoded key)."""
    entries = [
        (key_to_wire(key), value.state_dict())
        for key, value in per_key.items()
    ]
    entries.sort(key=lambda e: json.dumps(e[0], sort_keys=True))
    return [list(e) for e in entries]


def distribution_to_wire(distribution: Any) -> Dict[str, Any]:
    """Encode a distribution stage as a JSON-safe object."""
    return {
        "quantiles": list(distribution.quantiles),
        "key_fn": _key_fn_to_wire(distribution.key_fn),
        "hist": {
            "total": distribution.histogram().state_dict(),
            "per_key": _sorted_keyed_states(distribution.histograms()),
        },
        "sketch": {
            "alpha": distribution.alpha,
            "max_buckets": distribution.max_buckets,
            "total": distribution.sketch().state_dict(),
            "per_key": _sorted_keyed_states(distribution.sketches()),
        },
    }


def _decode_keyed(entries: List[Any], decode) -> Dict[Any, Any]:
    decoded: Dict[Any, Any] = {}
    for key_wire, state in entries:
        key = key_from_wire(key_wire)
        if key in decoded:
            raise FrameCorrupt(f"distribution key {key_wire!r} repeated")
        decoded[key] = decode(state)
    return decoded


def distribution_from_wire(wire: Dict[str, Any]) -> DistributionAnalytics:
    """Decode :func:`distribution_to_wire` output into a mergeable stage.

    Rebuilds each key's register from its histogram and sketch states
    and refuses, as :class:`FrameCorrupt`, anything a real stage cannot
    hold: inconsistent counts, negative weights, ``min > max``, a key
    in one view only, or totals that are not the sum of the keys.
    """
    try:
        hist_wire = wire["hist"]
        sketch_wire = wire["sketch"]
        total_hist = RttHistogram.from_state(hist_wire["total"])
        distribution = DistributionAnalytics(
            total_hist.spec,
            alpha=float(sketch_wire["alpha"]),
            max_buckets=sketch_wire["max_buckets"],
            quantiles=tuple(float(q) for q in wire["quantiles"]),
            key_fn=_key_fn_from_wire(wire["key_fn"]),
        )
        hists = _decode_keyed(hist_wire["per_key"], RttHistogram.from_state)
        sketches = _decode_keyed(sketch_wire["per_key"],
                                 QuantileSketch.from_state)
        if hists.keys() != sketches.keys():
            raise FrameCorrupt("distribution keys differ between the "
                               "histogram and the sketch")
        for key, hist in hists.items():
            distribution.load_key(key, hist, sketches[key])
        if (distribution.histogram() != total_hist
                or distribution.sketch()
                != QuantileSketch.from_state(sketch_wire["total"])):
            raise FrameCorrupt("distribution totals are not the sum of "
                               "the per-key states")
        return distribution
    except FrameCorrupt:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameCorrupt(f"malformed distribution payload: {exc}") from exc


# -- stats codec --------------------------------------------------------------
#
# Every monitor's stats object is a dataclass of additive counters; Dart
# additionally keeps verdict->count dicts keyed by enums.  The wire form
# records the stats *type name* (resolved against an explicit registry,
# never arbitrary import paths) and flattens enum keys to their string
# values.

STATS_TYPES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (DartStats, TcpTraceStats, StrawmanStats, DapperStats,
                SpinBitStats)
}

_ENUM_TYPES: Dict[str, Type[enum.Enum]] = {
    cls.__name__: cls for cls in (SeqVerdict, AckVerdict)
}


def stats_to_wire(stats: Any) -> Dict[str, Any]:
    """Encode a monitor stats dataclass as a JSON-safe tagged object."""
    name = type(stats).__name__
    if name not in STATS_TYPES or not is_dataclass(stats):
        known = ", ".join(sorted(STATS_TYPES))
        raise ValueError(
            f"cannot encode stats of type {name!r} (known: {known})"
        )
    encoded: Dict[str, Any] = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            items = {}
            enum_name = None
            for key, count in value.items():
                if isinstance(key, enum.Enum):
                    enum_name = type(key).__name__
                    if enum_name not in _ENUM_TYPES:
                        raise ValueError(
                            f"{name}.{f.name}: unregistered enum "
                            f"{enum_name!r}"
                        )
                    items[key.value] = count
                else:
                    items[key] = count
            encoded[f.name] = {"enum": enum_name, "items": items}
        elif isinstance(value, (int, float)):
            encoded[f.name] = value
        else:
            raise ValueError(
                f"{name}.{f.name}: non-additive field of type "
                f"{type(value).__name__!r} cannot cross the wire"
            )
    return {"type": name, "fields": encoded}


def stats_from_wire(wire: Dict[str, Any]) -> Any:
    """Decode :func:`stats_to_wire` output into a fresh stats object."""
    name = wire.get("type")
    cls = STATS_TYPES.get(name)
    if cls is None:
        known = ", ".join(sorted(STATS_TYPES))
        raise FrameCorrupt(
            f"unknown stats type {name!r} on the wire (known: {known})"
        )
    stats = cls()
    valid = {f.name for f in fields(stats)}
    for field_name, value in wire.get("fields", {}).items():
        if field_name not in valid:
            raise FrameCorrupt(f"{name} has no field {field_name!r}")
        if isinstance(value, dict):
            enum_name = value.get("enum")
            items = value.get("items", {})
            if enum_name is not None:
                enum_cls = _ENUM_TYPES.get(enum_name)
                if enum_cls is None:
                    raise FrameCorrupt(f"unknown enum {enum_name!r}")
                decoded = {enum_cls(k): int(v) for k, v in items.items()}
            else:
                decoded = {k: int(v) for k, v in items.items()}
            setattr(stats, field_name, decoded)
        else:
            setattr(stats, field_name, value)
    return stats

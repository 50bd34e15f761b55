"""repro.fleet — multi-vantage-point monitoring with a merging collector.

The paper's deployment is *many* switches measuring RTTs, reporting to
one collection server that holds the network-wide view (§5: detection
runs where the views meet).  This package is that topology for the
software reproduction:

* ``dart-agent`` (:mod:`repro.cli.agent`) — a thin wrapper over the
  streaming runner, one per capture/tap, exporting periodic cumulative
  deltas over the fleet wire protocol.
* ``dart-collector`` (:mod:`repro.cli.collector`) — merges agents'
  deltas by the repo's additive algebra, dedups flows observed at
  multiple taps, runs the BGP-interception detector over the merged
  window stream, and serves one aggregate Prometheus endpoint.

Layers here:

* :mod:`.wire` — the versioned length-prefixed framing protocol
  (``DARTFLT1``), the window codec, the stats type tag, and
  :func:`~repro.fleet.wire.decode_delta` (a delta decodes whole or is
  refused).
* :mod:`.agent` — :class:`CollectorClient` (reconnect + backoff),
  :class:`FleetExporter` (the :class:`~repro.stream.StreamHook`), and
  :class:`FlowCountTap` (per-canonical-flow sample counts).
* :mod:`.registry` — :class:`FlowRegistry`, exactly-once multi-tap
  flow accounting with per-tap attribution.
* :mod:`.collector` — :class:`FleetCollector` (the socket-free merge
  core), :class:`FleetServer` (wire front end), and
  :class:`FleetHttpServer` (Prometheus/JSON exposition).
"""

from .agent import (
    CollectorClient,
    FleetExporter,
    FlowCountTap,
    WindowTee,
    parse_endpoint,
)
from .collector import (
    AgentState,
    FleetCollector,
    FleetHttpServer,
    FleetServer,
)
from .registry import FlowRegistry, FlowView
from .wire import (
    FRAME_KINDS,
    MAGIC,
    WIRE_SCHEMA,
    Frame,
    FrameCorrupt,
    WireError,
    WireSchemaMismatch,
    decode_delta,
    encode_frame,
    key_from_wire,
    key_to_wire,
    read_frame,
    stats_from_wire,
    stats_to_wire,
    window_from_wire,
    window_to_wire,
)

__all__ = [
    "AgentState",
    "CollectorClient",
    "FRAME_KINDS",
    "FleetCollector",
    "FleetExporter",
    "FleetHttpServer",
    "FleetServer",
    "FlowCountTap",
    "FlowRegistry",
    "FlowView",
    "Frame",
    "FrameCorrupt",
    "MAGIC",
    "WIRE_SCHEMA",
    "WindowTee",
    "WireError",
    "WireSchemaMismatch",
    "decode_delta",
    "encode_frame",
    "key_from_wire",
    "key_to_wire",
    "parse_endpoint",
    "read_frame",
    "stats_from_wire",
    "stats_to_wire",
    "window_from_wire",
    "window_to_wire",
]

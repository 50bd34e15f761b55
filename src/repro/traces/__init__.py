"""Synthetic trace generation.

Substitutes for the paper's data sources:

* :func:`generate_campus_trace` — the anonymized Princeton campus trace
  (distributionally calibrated; see :mod:`repro.traces.workloads`).
* :func:`generate_attack_trace` — the PEERING BGP-interception capture.

The tcpreplay stand-in that feeds a trace to monitors is
:class:`repro.engine.MonitorEngine`.
"""

from .attack import AttackTrace, AttackTraceConfig, generate_attack_trace
from .campus import (
    INTERNAL_PREFIXES,
    CampusTrace,
    CampusTraceConfig,
    generate_campus_trace,
)
from .datacenter import (
    DC_INTERNAL_PREFIXES,
    FileTransferTraceConfig,
    IncastTraceConfig,
    VideoTraceConfig,
    WorkloadTrace,
    generate_file_transfer_trace,
    generate_incast_trace,
    generate_video_trace,
)
from .workloads import (
    CampusWorkload,
    DelayMixture,
    FileTransferShape,
    FlowSizeModel,
    IncastShape,
    PathImpairmentModel,
    VideoCallShape,
)

__all__ = [
    "AttackTrace",
    "AttackTraceConfig",
    "CampusTrace",
    "CampusTraceConfig",
    "CampusWorkload",
    "DC_INTERNAL_PREFIXES",
    "DelayMixture",
    "FileTransferShape",
    "FileTransferTraceConfig",
    "FlowSizeModel",
    "INTERNAL_PREFIXES",
    "IncastShape",
    "IncastTraceConfig",
    "PathImpairmentModel",
    "VideoCallShape",
    "VideoTraceConfig",
    "WorkloadTrace",
    "generate_attack_trace",
    "generate_campus_trace",
    "generate_file_transfer_trace",
    "generate_incast_trace",
    "generate_video_trace",
]

"""Continuous streaming operation: sources, checkpoints, the runner.

The paper's deployment is a switch that monitors RTTs *continuously*;
the batch CLIs replay a finished file and exit.  This package closes
that gap for the software reproduction: :class:`StreamRunner` drives a
:class:`~repro.engine.MonitorEngine` from a :class:`PacketSource`
(finished file, growing file, or paced replay) indefinitely, with
bounded memory (rotation), crash/restart durability (versioned
checkpoints, resumed sample-for-sample), and clean SIGTERM semantics.
The ``dart-stream`` CLI (:mod:`repro.cli.stream`) is the daemon
frontend.
"""

from .checkpoint import (
    SCHEMA,
    Checkpoint,
    CheckpointCorrupt,
    CheckpointError,
    CheckpointSchemaMismatch,
    read_checkpoint,
    read_header,
    write_checkpoint,
)
from .runner import StreamHook, StreamReport, StreamRunner, resume_run
from .signals import GracefulShutdown
from .sinks import SINK_KINDS, AnalyticsTap, ResumableSink
from .sources import (
    CaptureFileSource,
    PacedReplaySource,
    PacketSource,
    TailCaptureSource,
)

__all__ = [
    "CaptureFileSource",
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointError",
    "CheckpointSchemaMismatch",
    "GracefulShutdown",
    "PacedReplaySource",
    "PacketSource",
    "AnalyticsTap",
    "ResumableSink",
    "SCHEMA",
    "SINK_KINDS",
    "StreamHook",
    "StreamReport",
    "StreamRunner",
    "TailCaptureSource",
    "read_checkpoint",
    "read_header",
    "resume_run",
    "write_checkpoint",
]

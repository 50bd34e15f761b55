"""TelemetryEmitter: periodic registry emission during a trace pass.

The emitter owns one :class:`~repro.obs.metrics.MetricsRegistry`, a set
of collector callbacks, an interval clock, and an output destination.
The driving loop (:class:`repro.engine.MonitorEngine`) calls
:meth:`maybe_emit` once per ingest chunk — a single monotonic-clock
read when the interval has not elapsed, so the telemetry-on hot path
costs one comparison per ~8k packets between emissions.

Emission modes:

* ``json`` — one JSON line per emission (schema ``dart-telemetry/1``),
  appended to the stream/file; a run produces a JSONL log.
* ``prom`` — a full Prometheus text exposition per emission.  On a
  stream each exposition is prefixed with an ``# dart-telemetry`` comment
  banner; when writing to a *path* the file is atomically rewritten
  each time (node-exporter textfile-collector convention), so a scraper
  sidecar always reads one complete, current exposition.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, Optional, TextIO

from ..export.sinks import open_creating_parents
from .exporters import to_json, to_prometheus
from .metrics import MetricsRegistry

TELEMETRY_MODES = ("off", "json", "prom")

DEFAULT_INTERVAL_S = 1.0

Collector = Callable[[MetricsRegistry], None]


class TelemetryEmitter:
    """Collect-format-write, every ``interval_s`` seconds."""

    def __init__(
        self,
        mode: str = "json",
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        stream: Optional[TextIO] = None,
        path: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if mode not in ("json", "prom"):
            raise ValueError(
                f"mode must be 'json' or 'prom', got {mode!r} "
                "(telemetry-off runs simply have no emitter)"
            )
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if stream is not None and path is not None:
            raise ValueError("give stream or path, not both")
        self.mode = mode
        self.interval_s = interval_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self.emissions = 0
        self._collectors: List[Collector] = []
        self._clock = clock
        self._next_due = clock() + interval_s
        self._path = path
        self._closed = False
        if path is not None and mode == "json":
            # JSONL appends; the file is this run's emission log.
            self._stream: Optional[TextIO] = open_creating_parents(path, "w")
            self._owns_stream = True
        else:
            self._stream = stream if stream is not None else sys.stderr
            self._owns_stream = False
            if path is not None:
                self._stream = None  # prom-to-path rewrites per emission

    def add_collector(self, collector: Collector) -> None:
        """Register a callback run against the registry per emission."""
        self._collectors.append(collector)

    def due(self) -> bool:
        """Has the interval elapsed?  One clock read; no side effects."""
        return self._clock() >= self._next_due

    def maybe_emit(self) -> Optional[str]:
        """Emit if the interval elapsed; the per-chunk entry point."""
        if not self.due():
            return None
        return self.emit()

    def emit(self) -> str:
        """Collect, format, and write one emission now."""
        for collector in self._collectors:
            collector(self.registry)
        self.emissions += 1
        self._next_due = self._clock() + self.interval_s
        if self.mode == "json":
            text = to_json(self.registry, sequence=self.emissions,
                           timestamp_unix_ns=time.time_ns())
            self._write(text + "\n")
        else:
            text = to_prometheus(self.registry)
            if self._path is not None:
                self._rewrite(text)
            else:
                banner = (f"# dart-telemetry emission={self.emissions} "
                          f"unix_ms={time.time_ns() // 1_000_000}\n")
                self._write(banner + text)
        return text

    def _write(self, text: str) -> None:
        stream = self._stream
        if stream is None:
            return
        stream.write(text)
        stream.flush()

    def _rewrite(self, text: str) -> None:
        """Atomically replace the output file with one fresh exposition."""
        tmp_path = f"{self._path}.tmp"
        with open_creating_parents(tmp_path, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, self._path)

    def close(self) -> None:
        """Final emission (always), then release any owned file handle.

        Guarantees even a sub-interval run leaves one complete emission
        behind — the end-of-trace state.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.emit()
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None


# -- CLI glue (shared by dart-replay / dart-bench / dart-detect) -----------


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the ``--telemetry*`` flag family to a CLI parser."""
    parser.add_argument(
        "--telemetry", choices=list(TELEMETRY_MODES), default="off",
        help="periodically emit run metrics: 'json' (JSON lines) or "
             "'prom' (Prometheus text exposition); default: off",
    )
    parser.add_argument(
        "--telemetry-interval", type=float, default=DEFAULT_INTERVAL_S,
        metavar="SECONDS",
        help=f"seconds between emissions (default {DEFAULT_INTERVAL_S})",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="emission destination (default: stderr).  With --telemetry "
             "prom the file is atomically rewritten per emission; with "
             "json it accumulates JSON lines",
    )


def emitter_from_args(args: argparse.Namespace) -> Optional[TelemetryEmitter]:
    """Build the emitter an argparse namespace asks for (None when off)."""
    mode = getattr(args, "telemetry", "off")
    if mode == "off":
        return None
    if args.telemetry_interval <= 0:
        raise SystemExit("--telemetry-interval must be positive")
    return TelemetryEmitter(
        mode,
        interval_s=args.telemetry_interval,
        path=args.telemetry_out,
    )

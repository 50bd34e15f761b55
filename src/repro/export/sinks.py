"""Sample sinks that export to files: binary reports, CSV, JSONL.

These plug directly into Dart as (or alongside) the analytics module:
anything with an ``add(sample)`` method can consume the live sample
stream, so a monitor can simultaneously run min-filter analytics and
stream reports to disk for the collection server.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..core.hist import describe_key
from ..core.samples import RttSample
from .records import encode_sample

PathLike = Union[str, Path]


def open_creating_parents(path: PathLike, mode: str, **kwargs):
    """``open`` that first creates the file's missing parent directories.

    Operators point ``--csv``/``--telemetry-out``/sink paths into run
    directories that may not exist yet (a fresh deploy, a dated output
    tree); failing at first emission with ``FileNotFoundError`` helps
    nobody, so every file-backed sink funnels through here.
    """
    parent = Path(path).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    return open(path, mode, **kwargs)


class _FileSink:
    """Shared lifecycle for the file-backed sinks.

    ``flush()`` pushes buffered rows to disk without ending the stream —
    a sharded coordinator flushes a worker's sinks at shutdown — and
    ``close()`` is idempotent, so a sink reached through both a worker
    teardown path and a ``with`` block never double-closes.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._closed = False
        self.count = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self) -> None:
        if not self._closed:
            self._stream.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReportFileSink(_FileSink):
    """Streams binary report records to a file (see records.py).

    ``append=True`` reopens an existing file and continues after its
    current end — the streaming resume path, which truncates the file
    to its checkpointed length first and then appends.
    """

    def __init__(self, path: PathLike, *, append: bool = False) -> None:
        super().__init__(open_creating_parents(path, "ab" if append else "wb"))

    def add(self, sample: RttSample) -> None:
        self._stream.write(encode_sample(sample))
        self.count += 1


CSV_FIELDS = ("timestamp_ns", "rtt_ns", "src", "sport", "dst", "dport",
              "eack", "leg", "handshake")

# One ``%`` template per text row, byte-for-byte what ``csv.writer`` and
# ``json.dumps`` write for it: every field is an int, a bool, None, an
# address or a known leg (``external``/``internal``), so none needs
# quoting or escaping.  The address text is cached on the flow object.
_CSV_ROW = "%d,%d,%s,%d,%s,%d,%d,%s,%d\r\n"
_JSONL_ROW = ('{"ts_ns": %d, "rtt_ns": %d, "src": "%s", "sport": %d, '
              '"dst": "%s", "dport": %d, "eack": %d, "leg": %s, '
              '"handshake": %s}\n')
_JSON_LEG = {None: "null", "external": '"external"',
             "internal": '"internal"'}
_WINDOW_ROW = ('{"key": %s, "window": %d, "min_rtt_ns": %d, "samples": %d, '
               '"closed_at_ns": %d}\n')


class CsvSink(_FileSink):
    """Streams samples as CSV rows (header written up front).

    ``append=True`` continues an existing file without re-writing the
    header (the streaming resume path).
    """

    def __init__(self, path: PathLike, *, append: bool = False) -> None:
        super().__init__(
            open_creating_parents(path, "a" if append else "w", newline="")
        )
        if not append:
            self._stream.write(",".join(CSV_FIELDS) + "\r\n")

    def add(self, sample: RttSample) -> None:
        flow, rtt_ns, timestamp_ns, eack, handshake, leg = sample
        src, dst = flow.address_text
        self._stream.write(_CSV_ROW % (
            timestamp_ns, rtt_ns, src, flow.src_port, dst, flow.dst_port,
            eack, leg or "", handshake))
        self.count += 1


class JsonlSink(_FileSink):
    """Streams samples as JSON lines (one object per sample)."""

    def __init__(self, path: PathLike, *, append: bool = False) -> None:
        super().__init__(open_creating_parents(path, "a" if append else "w"))

    def add(self, sample: RttSample) -> None:
        flow, rtt_ns, timestamp_ns, eack, handshake, leg = sample
        src, dst = flow.address_text
        self._stream.write(_JSONL_ROW % (
            timestamp_ns, rtt_ns, src, flow.src_port, dst, flow.dst_port,
            eack, _JSON_LEG.get(leg) or json.dumps(leg),
            "true" if handshake else "false"))
        self.count += 1


class WindowJsonlSink(_FileSink):
    """Streams closed analytics windows as JSON lines.

    Consumes :class:`~repro.core.analytics.WindowMinimum` objects —
    the streaming runner drains closed windows from the analytics on
    its rotation interval and ships them here, so window history lives
    on disk instead of growing in memory.
    """

    def __init__(self, path: PathLike, *, append: bool = False) -> None:
        super().__init__(open_creating_parents(path, "a" if append else "w"))

    def add(self, window) -> None:
        self._stream.write(_WINDOW_ROW % (
            json.dumps(describe_key(window.key)), window.window_index,
            window.min_rtt_ns, window.sample_count, window.closed_at_ns))
        self.count += 1

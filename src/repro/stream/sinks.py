"""Resumable output files: export sinks with byte-offset accounting.

The resume contract is *byte identity*: a run that checkpoints and is
continued in a fresh process must produce output files identical to an
uninterrupted run.  The trick is that a crash (or even a graceful stop)
can leave rows in the files that were written *after* the checkpoint
was taken.  So every checkpoint records each file's flushed byte
offset, and resuming truncates the file back to that offset before
appending — discarding exactly the rows the restored monitors are about
to re-emit.

Offsets are measured with ``os.stat`` after a flush, never with the
stream's ``tell()``: text-mode ``tell`` returns an opaque cookie, not a
byte count.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Union

from ..export.sinks import CsvSink, JsonlSink, ReportFileSink, WindowJsonlSink
from .checkpoint import CheckpointCorrupt

PathLike = Union[str, Path]

#: Export file kind (a checkpoint's ``sinks[].kind``, a CLI export
#: flag's name) -> the sink class that writes it.
SINK_KINDS = {
    "csv": CsvSink,
    "jsonl": JsonlSink,
    "reports": ReportFileSink,
    "windows": WindowJsonlSink,
}


class ResumableSink:
    """Wraps one export sink with the offset/truncate resume protocol.

    Quacks like the sink it wraps (``add``/``flush``/``close``), adds
    :meth:`tell` (flushed size in bytes) and :meth:`state` (the dict the
    checkpoint header stores), and a :meth:`resume` constructor that
    truncates to a checkpointed offset and reopens in append mode.
    """

    def __init__(self, kind: str, path: PathLike, *,
                 append: bool = False) -> None:
        try:
            factory = SINK_KINDS[kind]
        except KeyError:
            known = ", ".join(sorted(SINK_KINDS))
            raise ValueError(
                f"unknown sink kind {kind!r} (known: {known})"
            ) from None
        self.kind = kind
        self.path = str(path)
        self.inner = factory(path, append=append)

    @classmethod
    def resume(cls, state: Dict[str, Any]) -> "ResumableSink":
        """Reopen a sink at its checkpointed offset.

        Truncates the file to ``state["offset"]`` (rows written after
        the checkpoint are re-emitted by the restored monitors), then
        appends.  A file shorter than the offset means the output no
        longer matches the checkpoint — refuse rather than produce a
        silently incomplete file.
        """
        kind = state["kind"]
        path = state["path"]
        offset = int(state["offset"])
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            raise CheckpointCorrupt(
                f"{path}: output file from checkpoint is missing"
            ) from None
        if size < offset:
            raise CheckpointCorrupt(
                f"{path}: output file is {size} bytes but the checkpoint "
                f"recorded {offset} — file was rewritten since"
            )
        if size > offset:
            with open(path, "r+b") as stream:
                stream.truncate(offset)
        return cls(kind, path, append=True)

    # -- sink protocol -----------------------------------------------------

    def add(self, item: Any) -> None:
        self.inner.add(item)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    @property
    def count(self) -> int:
        return self.inner.count

    # -- checkpoint support ------------------------------------------------

    def tell(self) -> int:
        """Flushed size of the output file in bytes."""
        self.inner.flush()
        return os.stat(self.path).st_size

    def state(self) -> Dict[str, Any]:
        """What the checkpoint header records for this sink."""
        return {"kind": self.kind, "path": self.path, "offset": self.tell()}


class AnalyticsTap:
    """Adapt an analytics object to the sample-router sink protocol.

    Routers ``flush()``/``close()`` their sinks with no arguments at
    teardown, but analytics objects have richer lifecycle signatures
    (``MinFilterAnalytics.flush(now_ns)``), so the tap exposes only
    ``add`` and leaves window finalization to whoever owns the
    analytics — the stream runner or the report builder.
    """

    def __init__(self, analytics: Any) -> None:
        self.analytics = analytics

    def add(self, sample: Any) -> None:
        self.analytics.add(sample)

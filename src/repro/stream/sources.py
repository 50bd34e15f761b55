"""Packet sources: where a streaming run's frames come from.

A :class:`PacketSource` produces chunks of *raw capture frames* —
``(timestamp_ns, is_ethernet, frame)`` tuples, exactly what
:class:`~repro.net.pcapng.FrameReader` yields — and knows how to
describe its own position (``resume_state``) so a checkpoint can record
exactly which frame comes next.  Decoding is not a source's business:
the runner hands every chunk to
:meth:`~repro.engine.MonitorEngine.ingest_wire_chunk`, which picks the
decoder, so a tailed or paced capture gets the same columnar decode as
a one-shot file.  Three implementations, all over the one frame reader:

* :class:`CaptureFileSource` — one pass over a finished pcap/pcapng
  file (what ``dart-replay`` does, expressed as a source);
* :class:`TailCaptureSource` — follows a *growing* capture the way
  ``tail -F`` follows a log: reads every complete record, waits when
  the file ends mid-record (tcpdump flushes record-at-a-time, so the
  tail sees :class:`~repro.net.pcap.TruncatedCapture` routinely),
  and starts over when the file is rotated out from under it;
* :class:`PacedReplaySource` — replays a finished capture honoring the
  trace's own timestamps in wall-clock time (optionally scaled), which
  turns any archived trace into a live feed for rehearsing continuous
  operation.

Chunk sizes count *frames*, TCP or not, so on a mixed capture a chunk
may decode to fewer records than it holds frames (and checkpoint
offsets differ from those of builds whose chunks counted decoded
records — any such checkpoint still resumes, since every recorded
offset is a frame boundary).

Sources yield *possibly empty* chunks: an empty chunk means "nothing
right now" and gives the runner a chance to checkpoint, emit telemetry,
and notice shutdown signals while idle.
"""

from __future__ import annotations

import os
import time
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..net.pcap import TruncatedCapture
from ..net.pcapng import Frame, FrameReader

PathLike = Union[str, Path]


class PacketSource:
    """Shared surface of the packet sources (see module docstring)."""

    #: Forwarded by the runner to ``ingest_wire_chunk(fastpath=...)``;
    #: ``False`` forces the object decoder (the reference leg the
    #: differential tests compare against).
    fastpath = True

    def chunks(self, max_records: int) -> Iterator[List[Frame]]:
        """Yield chunks of at most ``max_records`` raw capture frames.

        Chunks may be empty (idle poll).  The generator returning means
        the source is exhausted for good.
        """
        raise NotImplementedError

    def resume_state(self) -> Dict[str, Any]:
        """Position metadata a checkpoint stores to continue this source."""
        raise NotImplementedError

    def lag_bytes(self) -> int:
        """Bytes written to the capture that this source has not read."""
        return 0

    def close(self) -> None:
        """Release the underlying file handle (idempotent)."""


class CaptureFileSource(PacketSource):
    """One incremental pass over a finished pcap or pcapng file.

    ``resume_offset`` starts the pass at a checkpointed byte offset
    instead of the beginning; ``capture_format`` pins the format when
    the caller already knows it (otherwise it is sniffed).  A capture
    ending mid-record is the fatal parse error
    :class:`~repro.net.pcap.TruncatedCapture` subclasses — only the
    tail source waits for more bytes.

    ``fastpath`` is only carried for the runner (see
    :attr:`PacketSource.fastpath`); the chunks are the same frames
    either way.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        capture_format: Optional[str] = None,
        resume_offset: Optional[int] = None,
        fastpath: bool = True,
    ) -> None:
        self.path = str(path)
        self.fastpath = fastpath
        self._stream = open(self.path, "rb")
        try:
            self._reader = FrameReader(self._stream, capture_format)
            if resume_offset is not None:
                self._reader.skip_to(resume_offset)
        except BaseException:
            self._stream.close()
            raise

    def chunks(self, max_records: int) -> Iterator[List[Frame]]:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        frames = iter(self._reader)
        while True:
            chunk = list(islice(frames, max_records))
            if not chunk:
                return
            yield chunk

    def resume_state(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "format": self._reader.format,
            "offset": self._reader.resume_offset,
        }

    def lag_bytes(self) -> int:
        if self._stream is None:
            return 0
        try:
            size = os.fstat(self._stream.fileno()).st_size
        except OSError:
            return 0
        return max(0, size - self._reader.resume_offset)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class TailCaptureSource(PacketSource):
    """Follows a growing capture file, ``tail -F`` style.

    Reads every complete record currently in the file, yields an empty
    chunk when it catches up, sleeps ``poll_interval_s``, and retries —
    a file ending mid-record (:class:`TruncatedCapture`) is the normal
    steady state of tailing a flushing tcpdump, not an error.  Rotation
    (the path replaced by a new inode, or the file shrinking below the
    committed offset) restarts the tail at the new file's beginning.

    ``idle_timeout_s`` bounds how long the source waits without a
    single new record before declaring the stream over — ``None`` (the
    daemon default) waits forever.  ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        poll_interval_s: float = 0.5,
        idle_timeout_s: Optional[float] = None,
        capture_format: Optional[str] = None,
        resume_offset: Optional[int] = None,
        sleep=time.sleep,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self.path = str(path)
        self._poll_interval = poll_interval_s
        self._idle_timeout = idle_timeout_s
        self._pinned_format = capture_format
        self._sleep = sleep
        self._stream = None
        self._reader: Optional[FrameReader] = None
        if resume_offset is not None:
            self._try_resume(resume_offset)

    def _try_resume(self, offset: int) -> None:
        """Start at a checkpointed offset when the file still matches.

        If the capture was rotated since the checkpoint (missing, or
        now shorter than the offset) the tail starts fresh at the new
        file — the rotated-away bytes are gone either way.
        """
        try:
            size = os.stat(self.path).st_size
        except OSError:
            return
        if size < offset:
            return
        self._ensure_reader()
        if self._reader is not None:
            self._reader.skip_to(offset)

    # -- (re)opening -------------------------------------------------------

    def _ensure_reader(self) -> None:
        """Open the file and parse its header once enough bytes exist."""
        if self._reader is not None:
            return
        if self._stream is None:
            try:
                self._stream = open(self.path, "rb")
            except OSError:
                return  # file not there yet; keep polling
        try:
            self._reader = FrameReader(self._stream, self._pinned_format)
        except TruncatedCapture:
            pass  # header still being written; the handle is back at 0

    @property
    def _committed(self) -> int:
        """Offset after the last fully read record."""
        return self._reader.resume_offset if self._reader is not None else 0

    def _reopen(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._stream = None
        self._reader = None

    def _check_rotation(self) -> None:
        """Reopen when the path points at a new file.

        Two tells: the inode changed (classic rename rotation), or the
        file shrank below what this tail already consumed (truncate-in-
        place rotation).
        """
        if self._stream is None:
            return
        try:
            on_disk = os.stat(self.path)
        except OSError:
            return  # removed and not yet recreated; keep the old handle
        opened = os.fstat(self._stream.fileno())
        if on_disk.st_ino != opened.st_ino or on_disk.st_size < self._committed:
            self._reopen()

    # -- frame pull --------------------------------------------------------

    def _collect(self, max_records: int) -> List[Frame]:
        """Every complete frame available right now, up to the cap."""
        chunk: List[Frame] = []
        self._ensure_reader()
        if self._reader is not None:
            try:
                for frame in islice(self._reader, max_records):
                    chunk.append(frame)
            except TruncatedCapture:
                pass  # caught up mid-record; reader rewound for the retry
        return chunk

    # -- PacketSource ------------------------------------------------------

    def chunks(self, max_records: int) -> Iterator[List[Frame]]:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        idle = 0.0
        while True:
            chunk = self._collect(max_records)
            yield chunk
            if chunk:
                idle = 0.0
                continue
            if (
                self._idle_timeout is not None
                and idle >= self._idle_timeout
            ):
                return
            self._sleep(self._poll_interval)
            idle += self._poll_interval
            self._check_rotation()

    def resume_state(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "format": (self._reader.format if self._reader is not None
                       else self._pinned_format),
            "offset": self._committed,
        }

    def lag_bytes(self) -> int:
        try:
            size = os.stat(self.path).st_size
        except OSError:
            return 0
        return max(0, size - self._committed)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class PacedReplaySource(CaptureFileSource):
    """Replays a finished capture at the trace's own pace.

    The first frame is released immediately and becomes the epoch;
    every later frame is released when ``(its timestamp - epoch) /
    speed`` of wall-clock time has elapsed.  ``speed=10`` replays ten
    times faster than the capture; ``speed`` must be positive.

    A frame pulled from the file but not yet due stays *pending*:
    ``resume_state`` reports the offset **before** it, so a checkpoint
    taken between chunks never skips the packet the pacer was holding.

    ``clock``/``sleep`` are injectable so tests run instantly.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        speed: float = 1.0,
        capture_format: Optional[str] = None,
        resume_offset: Optional[int] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        super().__init__(path, capture_format=capture_format,
                         resume_offset=resume_offset)
        self._speed = speed
        self._clock = clock
        self._pace_sleep = sleep
        self._epoch_wall: Optional[float] = None
        self._epoch_ts = 0
        self._pending: Optional[Frame] = None
        self._pending_start = 0

    def _due(self, timestamp_ns: int) -> float:
        if self._epoch_wall is None:
            self._epoch_wall = self._clock()
            self._epoch_ts = timestamp_ns
        elapsed_ns = timestamp_ns - self._epoch_ts
        return self._epoch_wall + max(0, elapsed_ns) / 1e9 / self._speed

    def chunks(self, max_records: int) -> Iterator[List[Frame]]:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        frames = iter(self._reader)
        while True:
            chunk: List[Frame] = []
            while len(chunk) < max_records:
                if self._pending is None:
                    self._pending_start = self._reader.resume_offset
                    self._pending = next(frames, None)
                    if self._pending is None:
                        if chunk:
                            yield chunk
                        return
                due = self._due(self._pending[0])
                now = self._clock()
                if now < due:
                    if chunk:
                        # Ship what is ripe; the held frame stays
                        # pending (and excluded from resume_state).
                        break
                    self._pace_sleep(due - now)
                chunk.append(self._pending)
                self._pending = None
            yield chunk

    def resume_state(self) -> Dict[str, Any]:
        state = super().resume_state()
        if self._pending is not None:
            state["offset"] = self._pending_start
        return state

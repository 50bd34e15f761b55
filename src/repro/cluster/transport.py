"""The shard transport: byte batches from coordinator to worker process.

The original cluster shipped every packet as a pickled Python object
through a ``multiprocessing.Queue`` — and lost to the serial monitor
(4-shard process mode at ~70k pps vs ~131k serial when it was last
measured), because per-object pickling on the coordinator ate more CPU
than sharding saved.  :class:`ShmRingTransport` replaces that seam: a
single-producer / single-consumer ring buffer in
``multiprocessing.shared_memory`` that moves *contiguous byte batches*
(see :mod:`repro.net.framing`).  The producer memcpys a batch into the
ring and bumps a counter; the payload crosses the process boundary
with **zero** pickling and zero kernel copies (both sides map the same
pages).  It is the only way across: a host that cannot allocate POSIX
shared memory gets the ``OSError`` when the ring is built.

The worker loop consumes a three-message protocol:
``("batch", payload)``, ``("finish", end_ns)``, ``("stop", None)``.

Backpressure and fault rules:

* a full ring blocks the *producer* until the consumer makes room
  (never for a fixed nap: the whole ring is ~20 ms of a worker's time),
  waking at least every ``POLL_S`` to call ``stall_check()`` — the
  coordinator passes a callback that raises
  :class:`~repro.cluster.worker.ShardFailure` when the worker died, so
  a dead shard can never wedge the dispatch loop;
* the consumer blocks natively (semaphore acquire) — no busy-wait in
  workers;
* ``destroy()`` is idempotent and safe to call with the peer gone; the
  *coordinator* owns shared-memory unlinking (workers only close their
  mapping).
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Optional, Tuple

#: Seconds between stall checks while a producer waits for space.
POLL_S = 0.05

#: Byte ceiling per shipped batch (what :class:`~repro.cluster.sharding.
#: ByteBatchDispatcher` cuts at).  Big enough that the per-batch fixed
#: costs (one semaphore op, one counter update) amortise over thousands
#: of packets; small enough that workers start promptly.  Declared
#: here, once, because "no batch exceeds the ring" rests on it.
DEFAULT_BATCH_BYTES = 256 * 1024

#: Ring capacity as a multiple of the batch ceiling: room for several
#: in-flight batches before the producer blocks.
RING_BATCHES = 8

Message = Tuple[str, object]

#: Ring message kinds.
_K_BATCH = 0
_K_FINISH = 1
_K_STOP = 2

_MSG_HEAD = struct.Struct("<IB")  # payload length, kind
#: ``finish`` payload: whether an end-of-trace timestamp is present,
#: and the timestamp (ns, signed 64-bit).
_FINISH = struct.Struct("<?q")
#: Length sentinel: "no message fits before the ring edge — wrap".
_WRAP = 0xFFFFFFFF


class TransportClosed(RuntimeError):
    """The channel is gone (peer exited and tore the transport down)."""


def _default_stall_check() -> None:
    """No-op stall check for callers without liveness to consult."""


class ShmRingTransport:
    """SPSC byte ring in POSIX shared memory.

    Layout of the segment: a 16-byte header (``head`` and ``tail``
    monotonic u64 byte counters) followed by ``capacity`` data bytes.
    The producer alone advances ``head``, the consumer alone advances
    ``tail``; both updates happen under one cross-process lock (two
    lock ops per *batch*, thousands of packets — noise), a semaphore
    counts ready messages so the consumer blocks natively, and a second
    one, posted whenever ``tail`` moves, wakes a producer waiting for
    space.

    Messages are framed ``u32 length | u8 kind | payload`` and never
    split across the ring edge: when a message does not fit in the
    space before the edge, the producer writes a 4-byte wrap sentinel
    (or, with less than 4 contiguous bytes left, relies on the shared
    "dead tail" rule) and restarts at offset zero.  ``capacity``
    defaults to ``RING_BATCHES`` batch ceilings, so backpressure
    engages only when the worker is genuinely behind.
    """

    _HEADER = 16

    def __init__(self, ctx, *,
                 capacity: int = RING_BATCHES * DEFAULT_BATCH_BYTES) -> None:
        from multiprocessing import shared_memory

        self.capacity = capacity
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._HEADER + self.capacity
        )
        self._shm_name = self._shm.name
        self._owner = True
        struct.pack_into("<QQ", self._shm.buf, 0, 0, 0)
        self._lock = ctx.Lock()
        self._items = ctx.Semaphore(0)
        self._space = ctx.Semaphore(0)

    # -- pickling: the consumer half re-attaches by name -------------------

    def __getstate__(self):
        return {
            "capacity": self.capacity,
            "shm_name": self._shm_name,
            "lock": self._lock,
            "items": self._items,
            "space": self._space,
        }

    def __setstate__(self, state):
        from multiprocessing import resource_tracker, shared_memory

        self.capacity = state["capacity"]
        self._shm_name = state["shm_name"]
        self._lock = state["lock"]
        self._items = state["items"]
        self._space = state["space"]
        self._owner = False
        self._shm = shared_memory.SharedMemory(name=self._shm_name)
        # Attaching registers the segment with this process's resource
        # tracker (CPython gh-82300); the coordinator owns the unlink,
        # so deregister here or the tracker double-unlinks at exit.
        try:
            resource_tracker.unregister(self._shm._name, "shared_memory")
        except Exception:
            pass

    # -- counters -----------------------------------------------------------

    def _read_counters(self) -> Tuple[int, int]:
        with self._lock:
            return struct.unpack_from("<QQ", self._shm.buf, 0)

    def _advance_head(self, by: int) -> None:
        with self._lock:
            head, = struct.unpack_from("<Q", self._shm.buf, 0)
            struct.pack_into("<Q", self._shm.buf, 0, head + by)

    def _advance_tail(self, by: int) -> None:
        with self._lock:
            tail, = struct.unpack_from("<Q", self._shm.buf, 8)
            struct.pack_into("<Q", self._shm.buf, 8, tail + by)
        # "Space freed", holding at most one token (take a stale one
        # back before posting) so a producer never wakes more than once
        # for consumer progress it has already seen.
        self._space.acquire(block=False)
        self._space.release()

    # -- producer (coordinator) side ----------------------------------------

    def send_batch(self, payload: bytes,
                   stall_check: Callable[[], None] = _default_stall_check,
                   ) -> None:
        self._send(_K_BATCH, payload, stall_check)

    def send_finish(self, end_ns: Optional[int],
                    stall_check: Callable[[], None] = _default_stall_check,
                    ) -> None:
        payload = _FINISH.pack(end_ns is not None, end_ns or 0)
        self._send(_K_FINISH, payload, stall_check)

    def send_stop(self) -> None:
        try:
            self._send(_K_STOP, b"", _default_stall_check, timeout=1.0)
        except (TransportClosed, TimeoutError):
            pass

    def _send(self, kind: int, payload: bytes,
              stall_check: Callable[[], None],
              timeout: Optional[float] = None) -> None:
        need = _MSG_HEAD.size + len(payload)
        if need > self.capacity - 4:
            raise ValueError(
                f"message of {len(payload)} bytes exceeds the ring "
                f"capacity ({self.capacity})"
            )
        if self._shm is None:
            raise TransportClosed("ring is destroyed")
        deadline = (time.monotonic() + timeout) if timeout else None
        while True:
            head, tail = self._read_counters()
            offset = head % self.capacity
            edge = self.capacity - offset
            # Worst case we burn `edge` padding bytes before the data.
            advance = need if edge >= need else edge + need
            if self.capacity - (head - tail) >= advance:
                break
            stall_check()
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("ring full")
            self._space.acquire(timeout=POLL_S)
        buf = self._shm.buf
        if edge < need:
            # Not enough room before the edge: mark the dead tail (a
            # wrap sentinel when >= 4 bytes remain; fewer bytes are
            # skipped implicitly by the consumer's same edge rule).
            if edge >= 4:
                struct.pack_into("<I", buf, self._HEADER + offset, _WRAP)
            offset = 0
        _MSG_HEAD.pack_into(buf, self._HEADER + offset, len(payload), kind)
        data_at = self._HEADER + offset + _MSG_HEAD.size
        buf[data_at:data_at + len(payload)] = payload
        self._advance_head(advance)
        self._items.release()

    # -- consumer (worker) side ---------------------------------------------

    def _at_tail(self) -> Tuple[int, int, int, int]:
        """The message at ``tail``: ``(kind, payload offset, payload
        length, ring bytes consuming it releases)``."""
        _, tail = self._read_counters()
        offset = tail % self.capacity
        edge = self.capacity - offset
        buf = self._shm.buf
        skipped = 0
        if edge < _MSG_HEAD.size or (
            edge >= 4
            and struct.unpack_from("<I", buf, self._HEADER + offset)[0]
            == _WRAP
        ):
            skipped = edge
            offset = 0
        length, kind = _MSG_HEAD.unpack_from(buf, self._HEADER + offset)
        return (kind, self._HEADER + offset + _MSG_HEAD.size, length,
                skipped + _MSG_HEAD.size + length)

    def recv(self) -> Message:
        self._items.acquire()
        kind, data_at, length, consumed = self._at_tail()
        payload = bytes(self._shm.buf[data_at:data_at + length])
        self._advance_tail(consumed)
        if kind == _K_BATCH:
            return ("batch", payload)
        if kind == _K_FINISH:
            present, end_ns = _FINISH.unpack(payload)
            return ("finish", end_ns if present else None)
        return ("stop", None)

    def drain(self) -> None:
        """Fast-forward the consumer past everything queued (abort)."""
        while self._items.acquire(block=False):
            self._advance_tail(self._at_tail()[3])

    def depth(self) -> int:
        """Unconsumed bytes in the ring (a load signal, not messages)."""
        if self._shm is None:
            return -1
        head, tail = self._read_counters()
        return head - tail

    def close_consumer(self) -> None:
        """Detach the worker-side mapping (never unlinks)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass

    def destroy(self) -> None:
        """Release the segment.  Owner side also unlinks; idempotent."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except Exception:
            pass
        if self._owner:
            try:
                shm.unlink()
            except Exception:
                pass

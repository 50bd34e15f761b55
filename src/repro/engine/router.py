"""Sample fan-out: one producer, many sinks, explicit lifecycle.

Replaces the ad-hoc convention where callers spliced fan-out sinks into
monitor internals and remembered (or forgot) to flush/close file-backed
sinks themselves.  A
:class:`SampleRouter` validates its sinks up front, fans every routed
sample out to all of them, and owns the flush/close lifecycle — close is
idempotent, flush/close failures on one sink don't strand the others.

A router is itself a sink (``add`` aliases ``route``), so routers nest:
a per-monitor router can feed a shared cross-monitor one.
"""

from __future__ import annotations

from typing import Iterable, List

from ..core.samples import RttSample


class SampleRouter:
    """Fans a sample stream out to validated sinks with a lifecycle."""

    def __init__(self, sinks: Iterable = ()) -> None:
        self._sinks: List = []
        self._closed = False
        for sink in sinks:
            self.attach(sink)

    def attach(self, sink) -> None:
        """Add a sink; rejects objects without an ``add`` method."""
        add = getattr(sink, "add", None)
        if not callable(add):
            raise TypeError(
                f"sample sink {type(sink).__name__!r} has no callable "
                "add(sample) method"
            )
        self._sinks.append(sink)

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def route(self, sample: RttSample) -> None:
        for sink in self._sinks:
            sink.add(sample)

    # A router quacks like a sink, so a router can be another's sink.
    add = route

    def route_batch(self, samples: Iterable[RttSample]) -> None:
        sinks = self._sinks
        if not sinks:
            return
        if len(sinks) == 1:
            # Common case (one export sink): skip the inner loop.
            add = sinks[0].add
            for sample in samples:
                add(sample)
            return
        for sample in samples:
            for sink in sinks:
                sink.add(sample)

    def flush(self) -> None:
        """Flush every sink that supports it."""
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if callable(flush):
                flush()

    def close(self) -> None:
        """Flush and close every sink that supports it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        errors: List[BaseException] = []
        for sink in self._sinks:
            for method_name in ("flush", "close"):
                method = getattr(sink, method_name, None)
                if not callable(method):
                    continue
                try:
                    method()
                except Exception as exc:  # keep closing the rest
                    errors.append(exc)
        if errors:
            raise errors[0]

    def __len__(self) -> int:
        return len(self._sinks)

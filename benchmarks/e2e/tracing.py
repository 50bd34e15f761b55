"""Span accounting from outside the program under test.

`dart-e2e` may not edit `src/`, so every per-layer number comes from
timing calls into a layer's public functions: a wrapper swapped onto a
module function or a method for the length of one traced pass
(:meth:`Tracer.patch`), a proxy swapped onto a public attribute such as
``Dart.range_tracker`` (:meth:`Tracer.proxy`), or a direct timed call
made by the harness itself (:meth:`Tracer.measure`).

Spans nest: each wrapper pushes its span on a stack, and on exit adds
its duration to its own total and to the *child time* of the span below
it.  A layer's self time is ``total - child``, so the self times of all
spans under the root partition the root's duration — which is what lets
``harness.unaccounted_share`` say how much of a traced pass the table
does not explain.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

_MISSING = object()


class Span:
    """Accumulated time and call count of one named layer boundary."""

    __slots__ = ("total_ns", "child_ns", "calls", "durations")

    def __init__(self, keep: bool = False) -> None:
        self.total_ns = 0
        self.child_ns = 0
        self.calls = 0
        #: Every call's duration, kept only for per-chunk spans whose
        #: percentiles are reported (never for per-packet spans).
        self.durations: Optional[List[int]] = [] if keep else None

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


def _unproxy(target: Any) -> Any:
    return target


class TimedProxy:
    """Stands in for a table or analytics object, timing chosen methods.

    Everything else (``stats``, ``occupancy``, ``worth_recirculating``
    when not timed, ...) is delegated.  It pickles as its target, so a
    streaming checkpoint taken during a traced pass holds the real
    object.
    """

    def __init__(self, target: Any, tracer: "Tracer", layer: str,
                 methods: Iterable[str]) -> None:
        self.__dict__["_target"] = target
        for method in methods:
            bound = getattr(target, method, None)
            if bound is not None:
                self.__dict__[method] = tracer.wrap(f"{layer}.{method}", bound)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_target"], name)

    def __reduce__(self):
        return (_unproxy, (self.__dict__["_target"],))


class Tracer:
    """One traced pass's spans, and the patches that feed them."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.root = Span()
        self._stack: List[Span] = [self.root]
        self._patches: List[tuple] = []

    def span(self, name: str, keep: bool = False) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span(keep)
        return span

    def wrap(self, name: str, fn: Callable, keep: bool = False,
             after: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` with its calls recorded under span ``name``.

        ``after`` receives each result outside the timed region (how
        counts are taken at the same boundary as the time).
        """
        span = self.span(name, keep)
        stack = self._stack
        durations = span.durations
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.total_ns += elapsed
                span.calls += 1
                stack[-1].child_ns += elapsed
                if durations is not None:
                    durations.append(elapsed)

        if after is None:
            return traced

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            after(result)
            return result

        return counted

    def patch(self, owner: Any, attr: str, name: str, keep: bool = False,
              after: Optional[Callable[[Any], None]] = None) -> None:
        """Swap a timed wrapper onto ``owner.attr`` until :meth:`restore`.

        ``owner`` is a module, a class or an instance; callers must be
        ones that look the attribute up on each call.
        """
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr,
                self.wrap(name, getattr(owner, attr), keep, after))

    def proxy(self, owner: Any, attr: str, layer: str,
              methods: Iterable[str]) -> None:
        """Swap a :class:`TimedProxy` onto ``owner.attr``."""
        target = getattr(owner, attr)
        self._patches.append((owner, attr, target))
        setattr(owner, attr, TimedProxy(target, self, layer, methods))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def measure(self, name: str, keep: bool = False) -> Iterator[None]:
        """A span around harness code (a chunk read, a whole pass)."""
        span = self.span(name, keep)
        self._stack.append(span)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            span.total_ns += elapsed
            span.calls += 1
            self._stack[-1].child_ns += elapsed
            if span.durations is not None:
                span.durations.append(elapsed)

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable``, recording time spent producing items
        (a wrapped generator function would only time its creation)."""
        iterator = iter(iterable)
        while True:
            with self.measure(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    # -- reading results ----------------------------------------------------

    def total_ns(self, name: str) -> int:
        span = self.spans.get(name)
        return span.total_ns if span is not None else 0

    def self_ns(self, *prefixes: str) -> int:
        """Summed self time of every span whose name starts with a prefix."""
        return sum(span.self_ns for name, span in self.spans.items()
                   if name.startswith(prefixes))

    def calls(self, *prefixes: str) -> int:
        return sum(span.calls for name, span in self.spans.items()
                   if name.startswith(prefixes))

    def per_call_ns(self, name: str) -> float:
        span = self.spans.get(name)
        if span is None or not span.calls:
            return 0.0
        return span.total_ns / span.calls


def null_proxy_cost_ns(calls: int = 100_000) -> float:
    """What one wrapped call adds to its *parent's* self time.

    Times an empty function bare and wrapped exactly as the RT/PT/
    analytics proxies are; the wrapped loop's extra time, less what the
    wrapper booked to the empty call's own span, is instrumentation that
    lands in the caller — for the kernel, in
    ``core.pipeline.kernel_self_ns_per_pkt``.
    """
    def empty() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("null", empty)
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(calls):
        empty()
    bare = clock() - start
    with tracer.measure("loop"):
        start = clock()
        for _ in range(calls):
            wrapped()
        full = clock() - start
    return max(0.0, (full - bare - tracer.total_ns("null")) / calls)

"""The :class:`RttMonitor` protocol every monitor implements.

Before this layer existed, each CLI and test hand-rolled its own trace
loop and each monitor grew a slightly different surface (Dart had
``finalize``; the baselines did not; the QUIC monitor had neither
batching nor finalization).  The protocol pins down the common surface:

* ``stats`` — a dataclass of additive counters (summable across shards
  via :class:`repro.core.stats.AdditiveCounters`);
* ``samples`` — every :class:`~repro.core.samples.RttSample` the monitor
  has retained, in emission order;
* ``process(record)`` — one record in, zero or more samples out;
* ``process_batch(records)`` — the loop-hoisted form; ``None`` entries
  are skipped so pre-decoded traces with parse gaps feed straight in;
* ``finalize(at_ns)`` — end-of-trace hook (flush windowed analytics,
  or a documented no-op).

Monitors conform structurally — none of them import this module.  The
protocol is ``runtime_checkable`` so the registry and engine can reject
non-conforming objects early with a clear error instead of an
``AttributeError`` mid-trace.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Protocol, runtime_checkable

from ..core.samples import RttSample


@runtime_checkable
class RttMonitor(Protocol):
    """Structural type of every RTT monitor (Dart, baselines, spin-bit)."""

    stats: Any
    samples: List[RttSample]

    def process(self, record: Any) -> List[RttSample]:
        """Process one record; return the samples it produced."""
        ...

    def process_batch(self, records: Iterable[Any]) -> List[RttSample]:
        """Process a batch of records, skipping ``None`` entries."""
        ...

    def finalize(self, at_ns: Optional[int] = None) -> None:
        """Signal end-of-trace (flush any deferred/windowed state)."""
        ...


@runtime_checkable
class SampleSink(Protocol):
    """Anything that accepts routed samples (the historical convention)."""

    def add(self, sample: RttSample) -> None:
        ...


_MISSING = object()


def conforms_to_monitor(obj: Any) -> bool:
    """Structural check that never *invokes* the candidate's attributes.

    ``isinstance(obj, RttMonitor)`` would ``hasattr`` the data members,
    which triggers property getters — on a ``ShardedDart`` reading
    ``stats`` finalizes the whole cluster.  So: data members found on
    the *class* (properties, slot or other descriptors, class defaults)
    are accepted without being read; only when the class has no such
    name is the instance consulted, where lookup is a plain dict probe
    that cannot run getter code.

    The instance probe goes through ``getattr``, not ``obj.__dict__``:
    materializing ``__dict__`` would permanently de-optimize CPython's
    inline-values attribute storage for the monitor, slowing every
    later attribute read on the hot path by several percent.
    """
    cls = type(obj)
    for name in ("process", "process_batch", "finalize"):
        if not callable(getattr(cls, name, None)):
            return False
    for name in ("stats", "samples"):
        if hasattr(cls, name):
            continue  # class-level descriptor/default; never invoked
        if getattr(obj, name, _MISSING) is _MISSING:
            return False
    return True

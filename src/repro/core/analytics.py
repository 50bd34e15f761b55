"""The analytics module — paper §3.3.

Analytics components consume the RTT sample stream.  Beyond aggregation,
an analytics module can *reduce* data-plane resource usage: its
``worth_recirculating`` hook lets the pipeline drop evicted PT records
that can no longer produce a sample the analytics would care about
(e.g. a sample that cannot beat the current windowed minimum).

Provided components:

* :class:`CollectAllAnalytics` — keep everything (evaluation default).
* :class:`MinFilterAnalytics` — track the minimum RTT per key per window
  (the paper's propagation-delay monitoring example), with windows by
  sample count or by time.
* :class:`PrefixMinAnalytics` — minimum RTT aggregated per destination
  prefix (the paper's /24 aggregation suggestion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional

from ..net.inet import prefix_of
from .flow import FlowKey, intern_flow
from .samples import RttSample, SampleCollector


def flow_key(sample: RttSample) -> Hashable:
    """The default aggregation key: the sample's SEQ-direction flow.

    A module-level function (not a lambda) so analytics objects pickle —
    checkpointing a streaming run snapshots the whole monitor, analytics
    included.
    """
    return sample.flow


class CollectAllAnalytics:
    """Stores every sample; never purges recirculating records."""

    def __init__(self) -> None:
        self.collector = SampleCollector()

    def add(self, sample: RttSample) -> None:
        self.collector.add(sample)

    def worth_recirculating(self, flow: FlowKey, timestamp_ns: int,
                            now_ns: int) -> bool:
        return True

    @property
    def samples(self) -> List[RttSample]:
        return self.collector.samples

    def drain_samples(self) -> List[RttSample]:
        """Hand over (and forget) every retained sample.

        The streaming runner calls this on its rotation interval so a
        long run's retained list stays bounded; the samples were already
        routed to sinks at emission time, so dropping the retained copy
        loses nothing.
        """
        return self.collector.drain()


@dataclass(frozen=True, slots=True)
class WindowMinimum:
    """One closed window's minimum RTT for a key."""

    key: Hashable
    window_index: int
    min_rtt_ns: int
    sample_count: int
    closed_at_ns: int


class _WindowState:
    __slots__ = ("window_index", "min_rtt_ns", "sample_count",
                 "started_at_ns", "last_sample_ns")

    def __init__(self, window_index: int, started_at_ns: int) -> None:
        self.window_index = window_index
        self.min_rtt_ns: Optional[int] = None
        self.sample_count = 0
        self.started_at_ns = started_at_ns
        self.last_sample_ns = started_at_ns


class MinFilterAnalytics:
    """Windowed minimum-RTT tracking (the paper's min-filtering example).

    Windows can close after a fixed number of samples (paper §5.2 uses 8
    consecutive samples) or after a fixed time span — give exactly one of
    ``window_samples`` / ``window_ns``.

    ``key_fn`` maps each sample to its aggregation key (default: the
    flow 4-tuple).  Closed windows are appended to :attr:`history` and
    handed to ``on_window`` if provided, which is how the interception
    detector (:mod:`repro.detection`) consumes Dart output in real time.

    Long-run memory: by default every closed window is retained forever
    (the batch evaluation mode).  A continuous run bounds that two ways:
    ``retain_windows=N`` caps the per-key index at the N most recent
    closed windows per key, and :meth:`drain_windows` hands the whole
    accumulated history to a caller (the streaming runner ships drained
    windows to an export sink on its rotation interval, so retained
    state stays O(live keys), not O(run length)).  :meth:`expire_idle`
    additionally lets a long-lived run shed open-window state for keys
    that have gone quiet.
    """

    def __init__(
        self,
        *,
        window_samples: Optional[int] = None,
        window_ns: Optional[int] = None,
        key_fn: Optional[Callable[[RttSample], Hashable]] = None,
        on_window: Optional[Callable[[WindowMinimum], None]] = None,
        retain_windows: Optional[int] = None,
    ) -> None:
        if (window_samples is None) == (window_ns is None):
            raise ValueError("give exactly one of window_samples / window_ns")
        if window_samples is not None and window_samples <= 0:
            raise ValueError("window_samples must be positive")
        if window_ns is not None and window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if retain_windows is not None and retain_windows <= 0:
            raise ValueError("retain_windows must be positive")
        self._window_samples = window_samples
        self._window_ns = window_ns
        self._key_fn = key_fn if key_fn is not None else flow_key
        self._on_window = on_window
        self._retain_windows = retain_windows
        self._state: Dict[Hashable, _WindowState] = {}
        self.history: List[WindowMinimum] = []
        self._by_key: Dict[Hashable, deque] = {}
        self.sample_count = 0
        self.windows_closed = 0
        self.windows_evicted = 0

    def add(self, sample: RttSample) -> None:
        self.sample_count += 1
        key = self._key_fn(sample)
        state = self._state.get(key)
        if state is None:
            state = _WindowState(0, sample.timestamp_ns)
            self._state[key] = state
        state.last_sample_ns = sample.timestamp_ns
        if self._window_ns is not None:
            # Close any windows the clock has already passed (time-based
            # windows can close without a sample arriving in them).
            while sample.timestamp_ns - state.started_at_ns >= self._window_ns:
                self._close(key, state, sample.timestamp_ns)
                state.window_index += 1
                state.started_at_ns += self._window_ns
        if state.min_rtt_ns is None or sample.rtt_ns < state.min_rtt_ns:
            state.min_rtt_ns = sample.rtt_ns
        state.sample_count += 1
        if (
            self._window_samples is not None
            and state.sample_count >= self._window_samples
        ):
            self._close(key, state, sample.timestamp_ns)
            state.window_index += 1
            state.started_at_ns = sample.timestamp_ns

    def _close(self, key: Hashable, state: _WindowState, now_ns: int) -> None:
        if state.min_rtt_ns is None:
            # An empty time window carries no information; skip it.
            state.sample_count = 0
            return
        window = WindowMinimum(
            key=key,
            window_index=state.window_index,
            min_rtt_ns=state.min_rtt_ns,
            sample_count=state.sample_count,
            closed_at_ns=now_ns,
        )
        self._record_window(window)
        if self._on_window is not None:
            self._on_window(window)
        state.min_rtt_ns = None
        state.sample_count = 0

    def _record_window(self, window: WindowMinimum) -> None:
        """Append a closed window to the history and the per-key index.

        The only write path into :attr:`history`, so the index can
        never go stale.  With
        ``retain_windows`` set the per-key index holds only the most
        recent N windows per key (older ones are evicted and counted).
        """
        self.history.append(window)
        self.windows_closed += 1
        per_key = self._by_key.get(window.key)
        if per_key is None:
            # maxlen=None keeps the historical unbounded behaviour.
            per_key = deque(maxlen=self._retain_windows)
            self._by_key[window.key] = per_key
        if per_key.maxlen is not None and len(per_key) == per_key.maxlen:
            self.windows_evicted += 1
        per_key.append(window)

    def drain_windows(self) -> List[WindowMinimum]:
        """Hand over (and forget) every retained closed window.

        The streaming hand-off: the runner ships drained windows to an
        export sink on its rotation interval, so in-process window state
        stays bounded by the rotation interval rather than growing with
        the run.  Open windows are untouched; :meth:`minima_for` answers
        from the retained set, so it starts empty after a drain.
        """
        drained = self.history
        self.history = []
        self._by_key.clear()
        return drained

    def expire_idle(self, now_ns: int, idle_ns: int) -> int:
        """Close and drop open-window state for keys gone quiet.

        A key whose last sample is at least ``idle_ns`` old has its open
        window closed (recorded like any other) and its state removed,
        so a continuous run's per-key state tracks *live* keys instead
        of every key ever seen.  Returns the number of keys expired.
        """
        if idle_ns <= 0:
            raise ValueError("idle_ns must be positive")
        expired = [
            key
            for key, state in self._state.items()
            if now_ns - state.last_sample_ns >= idle_ns
        ]
        for key in expired:
            state = self._state.pop(key)
            self._close(key, state, now_ns)
        return len(expired)

    def flush(self, now_ns: int) -> None:
        """Close all open windows (end of trace)."""
        for key, state in self._state.items():
            self._close(key, state, now_ns)

    def current_min(self, key: Hashable) -> Optional[int]:
        """Minimum RTT observed so far in the key's open window."""
        state = self._state.get(key)
        return state.min_rtt_ns if state is not None else None

    def minima_for(self, key: Hashable) -> List[WindowMinimum]:
        """Closed-window minima for one key, in window order.

        Answered from a per-key index in O(len(answer)) rather than a
        scan of the whole history (which grows with every key).
        """
        return list(self._by_key.get(key, ()))

    # -- Preemptive discard (paper §3.3) -----------------------------------

    def worth_recirculating(self, flow: FlowKey, timestamp_ns: int,
                            now_ns: int) -> bool:
        """Is an evicted record still able to produce a *useful* sample?

        The best-case sample from a record inserted at ``timestamp_ns``
        is ``now - timestamp``; if that already exceeds the current
        window's minimum for the record's key, recirculating it can only
        waste bandwidth (paper §3.3, "preemptively discard useless
        samples").
        """
        key_fn = self._key_fn
        if key_fn is flow_key:
            key = flow  # the default key of a sample *is* its flow
        else:
            key = key_fn(_probe_sample(flow, now_ns))
        current = self.current_min(key)
        if current is None:
            return True
        return now_ns - timestamp_ns < current


def _probe_sample(flow: FlowKey, now_ns: int) -> RttSample:
    """A throwaway sample used only to evaluate ``key_fn`` for a flow."""
    return RttSample(flow=flow, rtt_ns=0, timestamp_ns=now_ns, eack=0)


@dataclass(frozen=True, slots=True)
class DstPrefixKey:
    """Picklable key function: the data receiver's /N prefix.

    For external-leg measurement the SEQ-direction flow's destination is
    the remote (Internet) host, so this aggregates per remote /24 — the
    paper's suggested congestion view (§3.1).

    A callable dataclass rather than a closure so analytics configured
    with it survive pickling — both the cluster's process boundary and
    the streaming checkpoint snapshot require it.
    """

    prefix_len: int = 24

    def __call__(self, sample: RttSample) -> Hashable:
        return prefix_of(sample.flow.dst_ip, self.prefix_len)


# -- key codec: a flow key, int (prefix) or str key, and a key function, as
# small tagged JSON objects that decode to the same type (a flow key to
# the locally interned object).

def key_to_wire(key: Any) -> Dict[str, Any]:
    """Encode one analytics/flow key as a JSON-safe tagged object."""
    if isinstance(key, FlowKey):
        return {"t": "flow", "src": key.src_ip, "dst": key.dst_ip,
                "sport": key.src_port, "dport": key.dst_port,
                "v6": key.ipv6}
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise ValueError(f"cannot encode analytics key of type "
                         f"{type(key).__name__!r}")
    return {"t": "int" if isinstance(key, int) else "str", "v": key}


def key_from_wire(wire: Dict[str, Any]) -> Any:
    """Decode :func:`key_to_wire` output back into the original key."""
    tag = wire.get("t")
    if tag == "flow":
        return intern_flow(int(wire["src"]), int(wire["dst"]),
                           int(wire["sport"]), int(wire["dport"]),
                           bool(wire.get("v6", False)))
    if tag == "int":
        return int(wire["v"])
    if tag == "str":
        return str(wire["v"])
    raise ValueError(f"unknown key tag {tag!r}")


def key_fn_to_wire(key_fn: Any) -> Dict[str, Any]:
    """Encode a key function (:func:`flow_key` or a :class:`DstPrefixKey`)."""
    if key_fn is flow_key:
        return {"t": "flow_fn"}
    if isinstance(key_fn, DstPrefixKey):
        return {"t": "prefix_fn", "len": key_fn.prefix_len}
    raise ValueError(f"cannot encode key function {key_fn!r} (flow_key "
                     "and DstPrefixKey cross the wire)")


def key_fn_from_wire(wire: Dict[str, Any]) -> Any:
    """Decode :func:`key_fn_to_wire` output."""
    tag = wire.get("t")
    if tag == "flow_fn":
        return flow_key
    if tag == "prefix_fn":
        return DstPrefixKey(int(wire["len"]))
    raise ValueError(f"unknown key-function tag {tag!r}")


class PrefixMinAnalytics(MinFilterAnalytics):
    """Minimum-RTT windows aggregated per destination /N prefix."""

    def __init__(
        self,
        *,
        prefix_len: int = 24,
        window_samples: Optional[int] = None,
        window_ns: Optional[int] = None,
        on_window: Optional[Callable[[WindowMinimum], None]] = None,
    ) -> None:
        super().__init__(
            window_samples=window_samples,
            window_ns=window_ns,
            key_fn=DstPrefixKey(prefix_len),
            on_window=on_window,
        )
        self.prefix_len = prefix_len

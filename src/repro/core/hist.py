"""Data-plane-feasible RTT distribution analytics (paper §3.3).

The paper's analytics module is the operator customization point, but
min-filtering alone cannot answer the p50/p95/p99 questions §6 reports —
those are computed offline from retained samples, which is exactly what
a data plane cannot do.  P4TG's histogram-based RTT monitoring shows
fixed-bin histograms *are* switch-feasible: one register array per key,
one bounds-compare + increment per sample.  This module provides that
stage, plus a per-key promotion of the DDSketch-style
:class:`~repro.analysis.sketch.QuantileSketch`, with ``merge()``
semantics matching :class:`~repro.core.pipeline.DartStats`:

* **addition** across cluster shards — flow-consistent sharding puts
  each key's state on exactly one shard, so the shard-merged histogram
  equals a serial run's bin for bin;
* **replacement under (epoch, seq)** across fleet agents — agents ship
  cumulative snapshots, the collector keeps the latest per agent and
  sums across agents.

Nothing here retains samples: per-sample work is O(1) (a bisect into
the bin edges, a sketch bucket increment) and state is O(keys x bins),
which is what :func:`repro.hw.estimate_histogram` costs against the
Tofino model.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..analysis.sketch import QuantileSketch
from ..net.inet import int_to_ipv4, int_to_ipv6
from .analytics import DstPrefixKey, flow_key
from .samples import RttSample

#: Default edge range: 100 microseconds to 10 seconds covers LAN RTTs
#: through badly congested WAN paths; log spacing matches how RTTs
#: spread (and what a TCAM range table would encode).
DEFAULT_MIN_EDGE_NS = 100_000
DEFAULT_MAX_EDGE_NS = 10_000_000_000
DEFAULT_BINS = 32
DEFAULT_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class HistogramSpec:
    """The bin-edge scheme: finite upper bounds, an implicit +Inf bin.

    ``edges_ns[i]`` is bin ``i``'s inclusive upper bound (Prometheus
    ``le`` semantics); values above the last edge land in the overflow
    bin, so a histogram always has ``len(edges_ns) + 1`` bins.  Frozen
    and hashable: two histograms merge only if their specs are equal,
    the same rule :meth:`QuantileSketch.merge` applies to ``alpha``.
    """

    edges_ns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.edges_ns:
            raise ValueError("need at least one bin edge")
        if any(e <= 0 for e in self.edges_ns):
            raise ValueError("bin edges must be positive")
        if any(b <= a for a, b in zip(self.edges_ns, self.edges_ns[1:])):
            raise ValueError("bin edges must be strictly increasing")

    @property
    def bins(self) -> int:
        """Total bin count including the +Inf overflow bin."""
        return len(self.edges_ns) + 1

    @classmethod
    def log_bins(
        cls,
        bins: int = DEFAULT_BINS,
        *,
        min_ns: int = DEFAULT_MIN_EDGE_NS,
        max_ns: int = DEFAULT_MAX_EDGE_NS,
    ) -> "HistogramSpec":
        """``bins`` log-spaced finite edges from ``min_ns`` to ``max_ns``."""
        if bins < 1:
            raise ValueError("bins must be positive")
        if not 0 < min_ns < max_ns:
            raise ValueError("need 0 < min_ns < max_ns")
        if bins == 1:
            return cls(edges_ns=(int(max_ns),))
        ratio = (max_ns / min_ns) ** (1 / (bins - 1))
        edges = []
        for i in range(bins):
            edge = int(round(min_ns * ratio ** i))
            if edges and edge <= edges[-1]:
                edge = edges[-1] + 1
            edges.append(edge)
        return cls(edges_ns=tuple(edges))

    @classmethod
    def from_edges_ms(cls, text: str) -> "HistogramSpec":
        """Parse explicit edges from CLI text: ``"1,2,5,10"`` (ms)."""
        try:
            values = [float(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"bad --hist-edges value: {text!r}") from None
        if not values:
            raise ValueError("--hist-edges needs at least one edge")
        return cls(edges_ns=tuple(int(round(v * 1e6)) for v in values))


class RttHistogram:
    """One fixed-bin histogram: the per-key register array.

    ``add`` is a bisect into the edges plus three stores — no per-sample
    allocation, no retention.  ``merge`` is element-wise addition over
    an identical spec, so it is associative and commutative with
    :meth:`RttHistogram.__eq__` as the bin-for-bin equality the cluster
    equivalence suite pins.
    """

    __slots__ = ("spec", "counts", "sum_ns", "count", "min_ns", "max_ns")

    def __init__(self, spec: HistogramSpec) -> None:
        self.spec = spec
        self.counts: List[int] = [0] * spec.bins
        self.sum_ns = 0
        self.count = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    def add(self, rtt_ns: int) -> None:
        if rtt_ns < 0:
            raise ValueError("RTT histograms accept non-negative values only")
        self.counts[bisect_left(self.spec.edges_ns, rtt_ns)] += 1
        self.sum_ns += rtt_ns
        self.count += 1
        if self.min_ns is None or rtt_ns < self.min_ns:
            self.min_ns = rtt_ns
        if self.max_ns is None or rtt_ns > self.max_ns:
            self.max_ns = rtt_ns

    def merge(self, other: "RttHistogram") -> None:
        if other.spec != self.spec:
            raise ValueError("cannot merge histograms with different edges")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum_ns += other.sum_ns
        self.count += other.count
        for bound in (other.min_ns, other.max_ns):
            if bound is None:
                continue
            if self.min_ns is None or bound < self.min_ns:
                self.min_ns = bound
            if self.max_ns is None or bound > self.max_ns:
                self.max_ns = bound

    def quantile(self, p: float) -> float:
        """The p-th (0..100) quantile estimate, exact to within its bin.

        Returns the midpoint of the bin holding the quantile's rank,
        clamped to the observed min/max — so the error is bounded by
        the bin's width, which is the accuracy contract the accuracy
        harness asserts.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"quantile out of range: {p}")
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        rank = p / 100 * (self.count - 1)
        seen = 0
        edges = self.spec.edges_ns
        for i, c in enumerate(self.counts):
            seen += c
            if seen > rank:
                if i >= len(edges):
                    # Overflow bin: the max is the only bound we have.
                    estimate = float(self.max_ns or edges[-1])
                else:
                    lower = edges[i - 1] if i > 0 else 0
                    estimate = (lower + edges[i]) / 2
                low = float(self.min_ns or 0)
                high = float(self.max_ns or estimate)
                return min(max(estimate, low), high)
        return float(self.max_ns or 0)

    def mean_ns(self) -> float:
        return self.sum_ns / self.count if self.count else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RttHistogram):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.counts == other.counts
            and self.sum_ns == other.sum_ns
            and self.count == other.count
            and self.min_ns == other.min_ns
            and self.max_ns == other.max_ns
        )

    __hash__ = None  # type: ignore[assignment]

    # -- wire/state (JSON-safe; the fleet codec wraps these) ---------------

    def state_dict(self) -> Dict:
        return {
            "edges_ns": list(self.spec.edges_ns),
            "counts": list(self.counts),
            "sum_ns": self.sum_ns,
            "count": self.count,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "RttHistogram":
        hist = cls(HistogramSpec(edges_ns=tuple(state["edges_ns"])))
        counts = [int(c) for c in state["counts"]]
        if len(counts) != hist.spec.bins:
            raise ValueError("histogram state has the wrong bin count")
        hist.counts = counts
        hist.sum_ns = int(state["sum_ns"])
        hist.count = int(state["count"])
        hist.min_ns = state["min_ns"]
        hist.max_ns = state["max_ns"]
        return hist


def _require_same_key_fn(mine, theirs) -> None:
    if mine != theirs:
        raise ValueError(
            "cannot merge distribution stages keyed differently "
            f"({mine!r} vs {theirs!r})"
        )


class RttHistogramAnalytics:
    """Per-key fixed-bin histograms plus an all-traffic aggregate.

    Satisfies the analytics protocol (``add`` / ``flush`` /
    ``worth_recirculating``) so it can ride a Dart pipeline, an engine
    sample router sink, or a shard worker.  ``key_fn`` must be
    picklable (module function or frozen dataclass) — the state crosses
    the cluster's process boundary and the streaming checkpoint.
    """

    def __init__(
        self,
        spec: Optional[HistogramSpec] = None,
        *,
        key_fn: Optional[Callable[[RttSample], Hashable]] = None,
    ) -> None:
        self.spec = spec if spec is not None else HistogramSpec.log_bins()
        self.key_fn = key_fn if key_fn is not None else flow_key
        self.total = RttHistogram(self.spec)
        self.per_key: Dict[Hashable, RttHistogram] = {}

    def add(self, sample: RttSample) -> None:
        self.total.add(sample.rtt_ns)
        key = self.key_fn(sample)
        hist = self.per_key.get(key)
        if hist is None:
            hist = RttHistogram(self.spec)
            self.per_key[key] = hist
        hist.add(sample.rtt_ns)

    def flush(self, now_ns: int) -> None:
        """Histograms are cumulative; there is nothing to close."""

    def worth_recirculating(self, flow, timestamp_ns: int,
                            now_ns: int) -> bool:
        return True  # every sample shapes the distribution

    def merge(self, other: "RttHistogramAnalytics") -> None:
        if other.spec != self.spec:
            raise ValueError("cannot merge histograms with different edges")
        _require_same_key_fn(self.key_fn, other.key_fn)
        self.total.merge(other.total)
        for key, hist in other.per_key.items():
            mine = self.per_key.get(key)
            if mine is None:
                mine = RttHistogram(self.spec)
                self.per_key[key] = mine
            mine.merge(hist)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RttHistogramAnalytics):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.total == other.total
            and self.per_key == other.per_key
        )

    __hash__ = None  # type: ignore[assignment]


class RttSketchAnalytics:
    """Per-key quantile sketches plus an all-traffic aggregate.

    The promotion of :class:`~repro.analysis.sketch.QuantileSketch` to
    a first-class analytics stage: cumulative (not windowed, unlike
    :class:`~repro.analysis.sketch.QuantileSketchAnalytics`), keyed by
    a picklable ``key_fn``, and mergeable with the same addition /
    replacement algebra as the histogram stage.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.01,
        max_buckets: Optional[int] = 4096,
        key_fn: Optional[Callable[[RttSample], Hashable]] = None,
    ) -> None:
        self.alpha = alpha
        self.max_buckets = max_buckets
        self.key_fn = key_fn if key_fn is not None else flow_key
        self.total = QuantileSketch(alpha=alpha, max_buckets=max_buckets)
        self.per_key: Dict[Hashable, QuantileSketch] = {}

    def add(self, sample: RttSample) -> None:
        self.total.add(sample.rtt_ns)
        key = self.key_fn(sample)
        sketch = self.per_key.get(key)
        if sketch is None:
            sketch = QuantileSketch(alpha=self.alpha,
                                    max_buckets=self.max_buckets)
            self.per_key[key] = sketch
        sketch.add(sample.rtt_ns)

    def flush(self, now_ns: int) -> None:
        """Sketches are cumulative; there is nothing to close."""

    def worth_recirculating(self, flow, timestamp_ns: int,
                            now_ns: int) -> bool:
        return True

    def merge(self, other: "RttSketchAnalytics") -> None:
        _require_same_key_fn(self.key_fn, other.key_fn)
        self.total.merge(other.total)
        for key, sketch in other.per_key.items():
            mine = self.per_key.get(key)
            if mine is None:
                mine = QuantileSketch(alpha=self.alpha,
                                      max_buckets=self.max_buckets)
                self.per_key[key] = mine
            mine.merge(sketch)

    def quantile(self, p: float) -> float:
        return self.total.quantile(p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RttSketchAnalytics):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.total == other.total
            and self.per_key == other.per_key
        )

    __hash__ = None  # type: ignore[assignment]


class _KeyedBuffer:
    """Per-key accumulation register: the data-plane half of the stage.

    One compact object per key holding histogram counts and sketch
    bucket *deltas* since the last flush — the Python analogue of the
    switch's per-key register array, which the control plane reads and
    folds at harvest.  Keeping the hot path to one object (instead of
    an ``RttHistogram`` + ``QuantileSketch`` pair) roughly halves the
    memory touched per sample, which is what the *distribution* row of
    ``benchmarks/overheads.py`` budgets in ns per sample.
    """

    __slots__ = ("counts", "sum_ns", "count", "min_ns", "max_ns",
                 "buckets")

    def __init__(self, bins: int) -> None:
        self.counts: List[int] = [0] * bins
        self.sum_ns = 0
        self.count = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self.buckets: Dict[int, int] = {}


class DistributionAnalytics:
    """Histogram + sketch stages behind one analytics front.

    The object the CLIs build, checkpoints pickle, shard harvests ship,
    and the fleet wire encodes.  ``inner`` composes an existing
    analytics module (``CollectAllAnalytics`` to keep retained samples,
    ``MinFilterAnalytics`` to keep windowed minima): ``add`` fans out
    to the stages and the inner module, and unknown attributes
    (``samples``, ``history``, ``drain_windows`` ...) delegate to it,
    so the distribution stage is a strict add-on — everything that
    worked before keeps working.

    Internally ``add`` only touches a per-key :class:`_KeyedBuffer`;
    the ``histogram``/``sketch`` stages (totals and per-key) are
    brought up to date by an exact additive flush on every read,
    merge, snapshot, or pickle.  Flushing is pure integer addition
    with the same bin/bucket index math as the stage-wise ``add``
    paths, so the resulting state is identical to eager fan-out —
    the equivalence the property suite pins.
    """

    def __init__(
        self,
        spec: Optional[HistogramSpec] = None,
        *,
        alpha: float = 0.01,
        max_buckets: Optional[int] = 4096,
        quantiles: Tuple[float, ...] = DEFAULT_QUANTILES,
        key_fn: Optional[Callable[[RttSample], Hashable]] = None,
        inner: Optional[object] = None,
    ) -> None:
        if not quantiles:
            raise ValueError("need at least one quantile")
        for q in quantiles:
            if not 0 <= q <= 100:
                raise ValueError(f"quantile out of range: {q}")
        self.histogram = RttHistogramAnalytics(spec, key_fn=key_fn)
        self.sketch = RttSketchAnalytics(
            alpha=alpha, max_buckets=max_buckets, key_fn=key_fn
        )
        self.quantiles = tuple(float(q) for q in quantiles)
        self._inner = inner
        self._rebind_caches()

    def _rebind_caches(self) -> None:
        """Hot-path shortcuts, rebuilt after ``__init__``/unpickle/
        snapshot: the bin edges, an empty buffer map, and the prefix
        shift when the key function is a :class:`DstPrefixKey` (its
        mask is two shifts we can do inline instead of two function
        calls per sample)."""
        self._edges = self.histogram.spec.edges_ns
        self._log_gamma = self.sketch.total._log_gamma
        self._keyed: Dict[Hashable, _KeyedBuffer] = {}
        # One-entry memo: ACK bursts make consecutive samples share a
        # key ~85% of the time on the campus trace, and the repeated
        # dict probe into a few hundred cold buffers is the single
        # largest cost of the buffered hot path.
        self._last_key: Optional[Hashable] = None
        self._last_buf: Optional[_KeyedBuffer] = None
        key_fn = self.histogram.key_fn
        self._prefix_shift: Optional[int] = None
        if (isinstance(key_fn, DstPrefixKey)
                and 0 <= key_fn.prefix_len <= 32):
            self._prefix_shift = 32 - key_fn.prefix_len

    # -- the analytics protocol --------------------------------------------

    def add(self, sample: RttSample) -> None:
        # The per-sample hot path — what benchmarks/overheads.py holds
        # to 2 500 ns per sample over a plain engine pass.  Only
        # the key's buffer is touched: one dict probe, one bisect, one
        # log, a handful of integer adds.  Totals and the per-key
        # stage objects are derived by _flush() at read time, the way
        # a switch's control plane folds register reads at harvest.
        rtt = sample.rtt_ns
        if rtt <= 0:
            self._add_slow(sample)
            return
        shift = self._prefix_shift
        if shift is not None:
            key = (sample.flow.dst_ip >> shift) << shift
        else:
            key = self.histogram.key_fn(sample)
        if key == self._last_key and self._last_buf is not None:
            buf = self._last_buf
        else:
            buf = self._keyed.get(key)
            if buf is None:
                buf = _KeyedBuffer(self.histogram.spec.bins)
                self._keyed[key] = buf
            self._last_key = key
            self._last_buf = buf
        buf.counts[bisect_left(self._edges, rtt)] += 1
        buf.sum_ns += rtt
        buf.count += 1
        if buf.min_ns is None or rtt < buf.min_ns:
            buf.min_ns = rtt
        if buf.max_ns is None or rtt > buf.max_ns:
            buf.max_ns = rtt
        buckets = buf.buckets
        # The exact expression QuantileSketch.add uses, so a flushed
        # sketch is bucket-identical to one fed sample by sample.
        index = math.ceil(math.log(rtt) / self._log_gamma)
        buckets[index] = buckets.get(index, 0) + 1
        if self._inner is not None:
            self._inner.add(sample)

    def _add_slow(self, sample: RttSample) -> None:
        # Zero/negative RTTs take the stage-wise path so the sketch's
        # zero-bucket semantics and the negative-value error stay
        # defined in exactly one place each.  Stage-wise adds commute
        # with buffered flushes — both are pure addition.
        self.histogram.add(sample)
        self.sketch.add(sample)
        if self._inner is not None:
            self._inner.add(sample)

    def _flush(self) -> None:
        """Fold the per-key buffers into the histogram/sketch stages.

        Exact by construction: buffer state is integer deltas keyed by
        the same bin/bucket indices the stage-wise paths compute, so
        flush order and frequency never change the resulting state —
        which keeps checkpoint bytes deterministic (``__getstate__``
        flushes first) and the shard-merge identity intact.
        """
        if not self._keyed:
            return
        hist = self.histogram
        sketch = self.sketch
        for key, buf in self._keyed.items():
            khist = hist.per_key.get(key)
            if khist is None:
                khist = RttHistogram(hist.spec)
                hist.per_key[key] = khist
            ksketch = sketch.per_key.get(key)
            if ksketch is None:
                ksketch = QuantileSketch(alpha=sketch.alpha,
                                         max_buckets=sketch.max_buckets)
                sketch.per_key[key] = ksketch
            for target in (khist, hist.total):
                counts = target.counts
                for i, c in enumerate(buf.counts):
                    if c:
                        counts[i] += c
                target.sum_ns += buf.sum_ns
                target.count += buf.count
                if buf.min_ns is not None and (target.min_ns is None
                                               or buf.min_ns < target.min_ns):
                    target.min_ns = buf.min_ns
                if buf.max_ns is not None and (target.max_ns is None
                                               or buf.max_ns > target.max_ns):
                    target.max_ns = buf.max_ns
            for starget in (ksketch, sketch.total):
                buckets = starget._buckets
                for index, weight in buf.buckets.items():
                    buckets[index] = buckets.get(index, 0) + weight
                starget.count += buf.count
                if buf.min_ns is not None and (starget._min is None
                                               or buf.min_ns < starget._min):
                    starget._min = buf.min_ns
                if buf.max_ns is not None and (starget._max is None
                                               or buf.max_ns > starget._max):
                    starget._max = buf.max_ns
                while (starget._max_buckets is not None
                       and len(starget._buckets) > starget._max_buckets):
                    starget._collapse_smallest()
        self._keyed = {}
        # The memo points into the cleared map; an add after a flush
        # must not land in an orphaned buffer.
        self._last_key = None
        self._last_buf = None

    # -- pickling (checkpoints, shard harvests) -----------------------------

    def __getstate__(self) -> Dict:
        # Flush first so pickled bytes are independent of read history
        # (the kill/resume suite requires byte-identical checkpoints),
        # and drop the derived caches — __setstate__ rebuilds them.
        self._flush()
        state = dict(self.__dict__)
        for name in ("_edges", "_keyed", "_prefix_shift", "_log_gamma",
                     "_last_key", "_last_buf"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._rebind_caches()

    def flush(self, now_ns: int) -> None:
        if self._inner is not None:
            flush = getattr(self._inner, "flush", None)
            if callable(flush):
                flush(now_ns)

    def worth_recirculating(self, flow, timestamp_ns: int,
                            now_ns: int) -> bool:
        return True  # the distribution wants every sample

    def __getattr__(self, name: str):
        # Delegate the rest of the analytics surface (samples, history,
        # drain_windows, minima_for ...) to the composed inner module.
        # Leading underscores are never delegated: that keeps pickle's
        # pre-__init__ probes from recursing through a missing _inner.
        if name.startswith("_"):
            raise AttributeError(name)
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- transport ----------------------------------------------------------

    @property
    def inner(self) -> Optional[object]:
        return self._inner

    def distribution_snapshot(self) -> "DistributionAnalytics":
        """The transportable view: stages only, no inner module.

        What shard harvests ship home and fleet deltas encode — the
        inner module's state already travels its own channel (retained
        samples, window history), so shipping it here would double it.
        Shares state with ``self``; callers that outlive the producer
        (the cluster merge) deep-copy before folding.
        """
        self._flush()
        snapshot = DistributionAnalytics.__new__(DistributionAnalytics)
        snapshot.histogram = self.histogram
        snapshot.sketch = self.sketch
        snapshot.quantiles = self.quantiles
        snapshot._inner = None
        snapshot._rebind_caches()
        return snapshot

    # -- merge algebra -------------------------------------------------------

    def merge(self, other: "DistributionAnalytics") -> None:
        """Fold another distribution in (addition — the shard rule).

        Inner modules are deliberately not merged: their state merges
        through the existing sample/window channels.
        """
        if other.quantiles != self.quantiles:
            raise ValueError("cannot merge distributions reporting "
                             "different quantiles")
        self._flush()
        other._flush()
        self.histogram.merge(other.histogram)
        self.sketch.merge(other.sketch)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionAnalytics):
            return NotImplemented
        self._flush()
        other._flush()
        return (
            self.quantiles == other.quantiles
            and self.histogram == other.histogram
            and self.sketch.total.count == other.sketch.total.count
        )

    __hash__ = None  # type: ignore[assignment]

    # -- read surface --------------------------------------------------------

    @property
    def count(self) -> int:
        self._flush()
        return self.histogram.total.count

    def percentiles(self) -> Dict[float, float]:
        """Sketch-estimated {quantile: rtt_ns} for the configured set."""
        self._flush()
        if self.sketch.total.count == 0:
            return {}
        return {q: self.sketch.total.quantile(q) for q in self.quantiles}

    def key_label(self, key: Hashable) -> str:
        """Render an aggregation key as a telemetry label value."""
        return describe_key(key, self.histogram.key_fn)


def describe_key(key: Hashable, key_fn: Optional[object] = None) -> str:
    """A stable, human-readable label for an aggregation key.

    Flow keys render via their own ``describe``; bare-int prefix keys
    (what :class:`~repro.core.analytics.DstPrefixKey` emits) render as
    dotted-quad/len when the key function tells us the length.  A key
    of 2**32 or more is an IPv6 address and renders without ``/len``:
    the stage masks ``32 - prefix_len`` low bits whatever the family.
    """
    describe = getattr(key, "describe", None)
    if callable(describe):
        return describe()
    if isinstance(key, int):
        if key >= 1 << 32:
            return int_to_ipv6(key)
        if isinstance(key_fn, DstPrefixKey):
            return f"{int_to_ipv4(key)}/{key_fn.prefix_len}"
        return int_to_ipv4(key)
    return str(key)


@dataclass(frozen=True)
class DistributionFactory:
    """Picklable zero-arg factory building one DistributionAnalytics.

    The cluster hands each shard worker its own analytics instance by
    calling a factory in the worker context; a shared instance would
    double-count under thread/serial sharding.  Frozen-dataclass
    callables pickle, closures do not — same reasoning as
    :class:`~repro.core.analytics.DstPrefixKey`.
    """

    spec: HistogramSpec = field(
        default_factory=lambda: HistogramSpec.log_bins()
    )
    alpha: float = 0.01
    max_buckets: Optional[int] = 4096
    quantiles: Tuple[float, ...] = DEFAULT_QUANTILES
    key_fn: Optional[object] = None
    inner_factory: Optional[Callable[[], object]] = None

    def __call__(self) -> DistributionAnalytics:
        inner = self.inner_factory() if self.inner_factory is not None else None
        return DistributionAnalytics(
            self.spec,
            alpha=self.alpha,
            max_buckets=self.max_buckets,
            quantiles=self.quantiles,
            key_fn=self.key_fn,
            inner=inner,
        )


def exact_quantile(values, p: float) -> float:
    """Linear-interpolated exact sample quantile (0..100).

    The single source of truth the sketch's accuracy guarantee is
    checked against: ``|sketch.quantile(p) - exact_quantile(vs, p)| <=
    alpha * exact_quantile(vs, p)``.  Shared by the accuracy harness
    and :mod:`repro.export.summaries` so percentile math is not
    reimplemented per call site.
    """
    data = sorted(values)
    if not data:
        raise ValueError("quantile of an empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"quantile out of range: {p}")
    rank = p / 100 * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(data[low])
    # ``lo + (hi - lo) * frac`` stays inside [lo, hi] where the two-
    # product form underflows to 0.0 on denormals (5e-324 * 0.5).
    return data[low] + (data[high] - data[low]) * (rank - low)

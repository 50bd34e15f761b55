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
the bin edges, a sketch bucket increment) and state is one register per
key — O(keys x bins) for the histogram, which is what
:func:`repro.hw.estimate_histogram` costs against the Tofino model,
plus at most ~ln(max RTT)/(2 alpha) raw sketch buckets.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..analysis.sketch import QuantileSketch
from ..net.inet import int_to_ipv4, int_to_ipv6
from .analytics import (
    DstPrefixKey,
    flow_key,
    key_fn_from_wire,
    key_fn_to_wire,
    key_from_wire,
    key_to_wire,
)
from .samples import RttSample
from .stats import natural

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
    """One fixed-bin histogram: what a key's register reads as.

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


class _Register:
    """One key's register: the only state the distribution stage keeps.

    The Python analogue of the switch's per-key register array: the
    histogram's bin counts, the sum/count/min/max both views share, the
    sketch's zero count and its raw bucket counts.  The control plane
    only reads it — :class:`RttHistogram` and :class:`QuantileSketch`
    views are built from it on demand.
    """

    __slots__ = ("counts", "sum_ns", "count", "min_ns", "max_ns",
                 "zero_count", "buckets")

    def __init__(self, bins: int) -> None:
        self.counts: List[int] = [0] * bins
        self.sum_ns = 0
        self.count = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self.zero_count = 0
        self.buckets: Dict[int, int] = {}

    def merge(self, other: "_Register") -> None:
        """Add ``other`` in (reads it, never keeps a reference to it)."""
        counts = self.counts
        for i, c in enumerate(other.counts):
            if c:
                counts[i] += c
        self.sum_ns += other.sum_ns
        self.count += other.count
        if other.min_ns is not None and (self.min_ns is None
                                         or other.min_ns < self.min_ns):
            self.min_ns = other.min_ns
        if other.max_ns is not None and (self.max_ns is None
                                         or other.max_ns > self.max_ns):
            self.max_ns = other.max_ns
        self.zero_count += other.zero_count
        buckets = self.buckets
        for index, weight in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + weight


class DistributionAnalytics:
    """Per-key RTT histograms and quantile sketches, plus their totals.

    The object the CLIs build, checkpoints pickle, shard harvests ship,
    and the fleet wire encodes.  ``inner`` composes an existing
    analytics module (``CollectAllAnalytics`` to keep retained samples,
    ``MinFilterAnalytics`` to keep windowed minima): ``add`` feeds the
    registers and the inner module, and unknown attributes
    (``samples``, ``history``, ``drain_windows`` ...) delegate to it,
    so the distribution stage is a strict add-on — everything that
    worked before keeps working.

    One :class:`_Register` per key is the whole state.  Every read —
    :meth:`histogram`, :meth:`sketch`, :meth:`histograms`,
    :meth:`sketches`, :attr:`count`, :meth:`percentiles` — builds fresh
    objects from the registers and changes nothing, so pickled bytes
    never depend on what was read when.  A view equals the
    :class:`RttHistogram`/:class:`QuantileSketch` fed the same samples
    one by one; ``max_buckets`` is applied when a sketch view is built.
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
        if not 0 < alpha < 1:
            raise ValueError(f"alpha out of range: {alpha}")
        self.spec = spec if spec is not None else HistogramSpec.log_bins()
        self.alpha = alpha
        self.max_buckets = max_buckets
        self.quantiles = tuple(float(q) for q in quantiles)
        self.key_fn = key_fn if key_fn is not None else flow_key
        self._inner = inner
        self._registers: Dict[Hashable, _Register] = {}
        # Hot-path shortcuts, all fixed by the configuration: the bin
        # edges, QuantileSketch's log(gamma) computed the way it does,
        # and the prefix shift when the key function is a DstPrefixKey
        # (its mask is two shifts done inline instead of two calls).
        self._edges = self.spec.edges_ns
        self._log_gamma = math.log((1 + alpha) / (1 - alpha))
        self._prefix_shift: Optional[int] = None
        if (isinstance(self.key_fn, DstPrefixKey)
                and 0 <= self.key_fn.prefix_len <= 32):
            self._prefix_shift = 32 - self.key_fn.prefix_len

    # -- the analytics protocol --------------------------------------------

    def add(self, sample: RttSample) -> None:
        # The per-sample hot path — what benchmarks/overheads.py holds
        # to 2 500 ns per sample over a plain engine pass: one dict
        # probe, one bisect, one log, a handful of integer adds.
        rtt = sample.rtt_ns
        if rtt < 0:
            raise ValueError("RTT distributions accept non-negative "
                             "values only")
        shift = self._prefix_shift
        if shift is not None:
            key = (sample.flow.dst_ip >> shift) << shift
        else:
            key = self.key_fn(sample)
        register = self._registers.get(key)
        if register is None:
            register = _Register(self.spec.bins)
            self._registers[key] = register
        register.counts[bisect_left(self._edges, rtt)] += 1
        register.sum_ns += rtt
        register.count += 1
        if register.min_ns is None or rtt < register.min_ns:
            register.min_ns = rtt
        if register.max_ns is None or rtt > register.max_ns:
            register.max_ns = rtt
        if rtt:
            # The exact expression QuantileSketch.add uses, so a sketch
            # view is bucket-identical to one fed sample by sample.
            index = math.ceil(math.log(rtt) / self._log_gamma)
            buckets = register.buckets
            buckets[index] = buckets.get(index, 0) + 1
        else:
            register.zero_count += 1
        if self._inner is not None:
            self._inner.add(sample)

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

    def config(self) -> Tuple:
        """``(spec, alpha, max_buckets, quantiles, key_fn)``: two stages
        merge only when these are equal."""
        return (self.spec, self.alpha, self.max_buckets, self.quantiles,
                self.key_fn)

    def distribution_snapshot(self) -> "DistributionAnalytics":
        """The transportable view: a copy of the registers, no inner module.

        What shard harvests ship home and fleet deltas encode — the
        inner module's state already travels its own channel (retained
        samples, window history), so shipping it here would double it.
        Shares nothing with ``self``: folding into it leaves the
        producer untouched.
        """
        snapshot = DistributionAnalytics(
            self.spec, alpha=self.alpha, max_buckets=self.max_buckets,
            quantiles=self.quantiles, key_fn=self.key_fn,
        )
        snapshot.merge(self)
        return snapshot

    def state(self) -> Dict[str, Any]:
        """The configuration and registers as JSON-safe data, one row
        ``[key, counts, sum_ns, count, min_ns, max_ns, zero_count,
        [[index, weight], ...]]`` per key, sorted by encoded key.  The
        inner module is not part of it; changes nothing."""
        rows = [
            [key_to_wire(key), list(r.counts), r.sum_ns, r.count, r.min_ns,
             r.max_ns, r.zero_count,
             [[i, w] for i, w in sorted(r.buckets.items())]]
            for key, r in self._registers.items()
        ]
        rows.sort(key=lambda row: json.dumps(row[0], sort_keys=True))
        return {
            "edges_ns": list(self.spec.edges_ns),
            "alpha": self.alpha,
            "max_buckets": self.max_buckets,
            "quantiles": list(self.quantiles),
            "key_fn": key_fn_to_wire(self.key_fn),
            "keys": rows,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DistributionAnalytics":
        """Rebuild from :meth:`state` output; ``ValueError`` for any row
        :meth:`add` could not leave (each check below)."""
        max_buckets = state["max_buckets"]
        if max_buckets is not None and natural(max_buckets) == 0:
            raise ValueError("max_buckets must be positive")
        stage = cls(
            HistogramSpec(edges_ns=tuple(map(natural, state["edges_ns"]))),
            alpha=float(state["alpha"]), max_buckets=max_buckets,
            quantiles=tuple(float(q) for q in state["quantiles"]),
            key_fn=key_fn_from_wire(state["key_fn"]),
        )
        for key_wire, counts, *scalars, buckets in state["keys"]:
            key = key_from_wire(key_wire)
            if key in stage._registers:
                raise ValueError(f"distribution key {key!r} repeated")
            register = _Register(stage.spec.bins)
            register.counts = [natural(c) for c in counts]
            (register.sum_ns, register.count, register.min_ns,
             register.max_ns, register.zero_count) = map(natural, scalars)
            for index, weight in buckets:
                index, weight = natural(index), natural(weight)
                if index in register.buckets:
                    raise ValueError(f"sketch bucket {index} repeated")
                if weight < 1:
                    raise ValueError(f"sketch bucket {index} weighs {weight}")
                register.buckets[index] = weight
            if len(register.counts) != stage.spec.bins:
                raise ValueError("histogram state has the wrong bin count")
            if register.count == 0:
                raise ValueError(f"key {key!r} holds no samples")
            if register.count != sum(register.counts):
                raise ValueError("histogram count is not the sum of its bins")
            if register.count != (register.zero_count
                                  + sum(register.buckets.values())):
                raise ValueError("sketch count is not its zero count plus "
                                 "its bucket weights")
            if register.min_ns > register.max_ns:
                raise ValueError("register min exceeds its max")
            stage._registers[key] = register
        return stage

    # -- merge algebra -------------------------------------------------------

    def merge(self, other: "DistributionAnalytics") -> None:
        """Add another stage's registers in (the shard rule).

        Copies what it adopts, so ``other`` stays independent.  Inner
        modules are deliberately not merged: their state merges through
        the existing sample/window channels.
        """
        if other.config() != self.config():
            names = ("spec", "alpha", "max_buckets", "quantiles", "key_fn")
            differ = [name for name, mine, theirs in
                      zip(names, self.config(), other.config())
                      if mine != theirs]
            raise ValueError("cannot merge distribution stages configured "
                             f"differently ({', '.join(differ)})")
        registers = self._registers
        for key, theirs in other._registers.items():
            mine = registers.get(key)
            if mine is None:
                mine = _Register(self.spec.bins)
                registers[key] = mine
            mine.merge(theirs)

    def __eq__(self, other: object) -> bool:
        """Same configuration and the same views: registers equal up to
        the sketch collapse, which no read or later merge can see."""
        if not isinstance(other, DistributionAnalytics):
            return NotImplemented
        return (
            self.config() == other.config()
            and self.histograms() == other.histograms()
            and self.sketches() == other.sketches()
        )

    __hash__ = None  # type: ignore[assignment]

    # -- read surface (pure: every call builds fresh objects) ---------------

    def _total(self) -> _Register:
        total = _Register(self.spec.bins)
        for register in self._registers.values():
            total.merge(register)
        return total

    def _histogram_of(self, register: _Register) -> RttHistogram:
        hist = RttHistogram(self.spec)
        hist.counts = list(register.counts)
        hist.sum_ns = register.sum_ns
        hist.count = register.count
        hist.min_ns = register.min_ns
        hist.max_ns = register.max_ns
        return hist

    def _sketch_of(self, register: _Register) -> QuantileSketch:
        return QuantileSketch.from_counts(
            register.buckets, register.zero_count, register.min_ns,
            register.max_ns, alpha=self.alpha, max_buckets=self.max_buckets,
        )

    def histogram(self, key: Optional[Hashable] = None) -> RttHistogram:
        """The histogram of one key, or of all traffic (``key=None``)."""
        if key is None:
            return self._histogram_of(self._total())
        return self._histogram_of(self._registers[key])

    def sketch(self, key: Optional[Hashable] = None) -> QuantileSketch:
        """The quantile sketch of one key, or of all traffic."""
        if key is None:
            return self._sketch_of(self._total())
        return self._sketch_of(self._registers[key])

    def histograms(self) -> Dict[Hashable, RttHistogram]:
        """Every key's histogram."""
        return {key: self._histogram_of(register)
                for key, register in self._registers.items()}

    def sketches(self) -> Dict[Hashable, QuantileSketch]:
        """Every key's quantile sketch."""
        return {key: self._sketch_of(register)
                for key, register in self._registers.items()}

    @property
    def count(self) -> int:
        return sum(register.count for register in self._registers.values())

    def percentiles(self) -> Dict[float, float]:
        """Sketch-estimated {quantile: rtt_ns} for the configured set."""
        if not self._registers:
            return {}
        sketch = self.sketch()
        return {q: sketch.quantile(q) for q in self.quantiles}

    def key_label(self, key: Hashable) -> str:
        """Render an aggregation key as a telemetry label value."""
        return describe_key(key, self.key_fn)


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

"""Tests for the RTT distribution analytics stage (DESIGN §16).

Covers the bin-edge scheme, the per-key registers and the views read
from them (equal to an RttHistogram and a QuantileSketch fed sample by
sample), reads that change nothing, checkpoint determinism, and — via
Hypothesis — the merge algebra the cluster and fleet rely on:
element-wise addition that is associative, commutative, and makes a
sharded run equal a serial one bin for bin, and the JSON-safe
``state()``/``from_state()`` pair the fleet wire carries.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import QuantileSketch
from repro.core.analytics import CollectAllAnalytics, DstPrefixKey, flow_key
from repro.core.flow import FlowKey
from repro.core.hist import (
    DistributionAnalytics,
    DistributionFactory,
    HistogramSpec,
    RttHistogram,
    describe_key,
    exact_quantile,
)
from repro.core.samples import RttSample
from repro.obs.collect import collect_distribution
from repro.obs.metrics import MetricsRegistry

MS = 1_000_000

FLOW_A = FlowKey(src_ip=0x0A000001, dst_ip=0x10000105, src_port=1, dst_port=2)
FLOW_B = FlowKey(src_ip=0x0A000002, dst_ip=0x10000207, src_port=3, dst_port=4)


def sample(flow, rtt_ns, t_ns=0):
    return RttSample(flow=flow, rtt_ns=rtt_ns, timestamp_ns=t_ns, eack=0)


def references(samples, spec, key_fn=flow_key, max_buckets=4096):
    """Per-key and all-traffic RttHistogram/QuantileSketch objects fed
    sample by sample: what a distribution stage's views must equal."""
    hists, sketches = {}, {}
    total_hist = RttHistogram(spec)
    total_sketch = QuantileSketch(max_buckets=max_buckets)
    for s in samples:
        key = key_fn(s)
        if key not in hists:
            hists[key] = RttHistogram(spec)
            sketches[key] = QuantileSketch(max_buckets=max_buckets)
        for hist in (hists[key], total_hist):
            hist.add(s.rtt_ns)
        for sketch in (sketches[key], total_sketch):
            sketch.add(s.rtt_ns)
    return hists, sketches, total_hist, total_sketch


class TestHistogramSpec:
    def test_bins_counts_overflow(self):
        spec = HistogramSpec(edges_ns=(10, 20, 40))
        assert spec.bins == 4

    def test_rejects_empty_nonpositive_unsorted(self):
        with pytest.raises(ValueError):
            HistogramSpec(edges_ns=())
        with pytest.raises(ValueError):
            HistogramSpec(edges_ns=(0, 10))
        with pytest.raises(ValueError):
            HistogramSpec(edges_ns=(10, 10))
        with pytest.raises(ValueError):
            HistogramSpec(edges_ns=(20, 10))

    def test_log_bins_monotone_and_sized(self):
        spec = HistogramSpec.log_bins(32)
        assert len(spec.edges_ns) == 32
        assert list(spec.edges_ns) == sorted(set(spec.edges_ns))

    def test_log_bins_tiny_range_stays_strict(self):
        spec = HistogramSpec.log_bins(16, min_ns=10, max_ns=20)
        assert list(spec.edges_ns) == sorted(set(spec.edges_ns))

    def test_from_edges_ms(self):
        spec = HistogramSpec.from_edges_ms("1,2.5,10")
        assert spec.edges_ns == (1_000_000, 2_500_000, 10_000_000)

    def test_from_edges_ms_rejects_garbage(self):
        with pytest.raises(ValueError):
            HistogramSpec.from_edges_ms("1,zebra")
        with pytest.raises(ValueError):
            HistogramSpec.from_edges_ms("")


class TestRttHistogram:
    def test_bin_placement_le_semantics(self):
        hist = RttHistogram(HistogramSpec(edges_ns=(10, 20)))
        for value in (5, 10, 11, 20, 21, 1000):
            hist.add(value)
        assert hist.counts == [2, 2, 2]
        assert hist.count == 6
        assert hist.min_ns == 5 and hist.max_ns == 1000

    def test_rejects_negative(self):
        hist = RttHistogram(HistogramSpec(edges_ns=(10,)))
        with pytest.raises(ValueError):
            hist.add(-1)

    def test_merge_is_addition(self):
        spec = HistogramSpec(edges_ns=(10, 20))
        a, b, c = (RttHistogram(spec) for _ in range(3))
        for v in (5, 15, 30):
            a.add(v)
            c.add(v)
        for v in (1, 25):
            b.add(v)
            c.add(v)
        a.merge(b)
        assert a == c

    def test_merge_rejects_different_specs(self):
        a = RttHistogram(HistogramSpec(edges_ns=(10,)))
        b = RttHistogram(HistogramSpec(edges_ns=(20,)))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_quantile_within_bin_width(self):
        spec = HistogramSpec.log_bins(32)
        hist = RttHistogram(spec)
        values = [((i * 7919) % 900 + 1) * MS for i in range(500)]
        for v in values:
            hist.add(v)
        for q in (50.0, 95.0, 99.0):
            exact = exact_quantile(values, q)
            estimate = hist.quantile(q)
            import bisect
            i = bisect.bisect_left(spec.edges_ns, exact)
            if i == 0:
                width = spec.edges_ns[0]
            elif i >= len(spec.edges_ns):
                width = spec.edges_ns[-1] - spec.edges_ns[-2]
            else:
                width = spec.edges_ns[i] - spec.edges_ns[i - 1]
            assert abs(estimate - exact) <= width

    def test_quantile_empty_raises(self):
        hist = RttHistogram(HistogramSpec(edges_ns=(10,)))
        with pytest.raises(ValueError):
            hist.quantile(50)


class TestDistributionAnalytics:
    def _samples(self):
        out = []
        for i in range(200):
            flow = FLOW_A if i % 3 else FLOW_B
            out.append(sample(flow, ((i * 37) % 50 + 1) * MS, t_ns=i))
        return out

    def test_buffered_equals_stagewise(self):
        spec = HistogramSpec.log_bins(16)
        dist = DistributionAnalytics(spec)
        samples = self._samples()
        for s in samples:
            dist.add(s)
        hists, sketches, total_hist, total_sketch = references(samples, spec)
        assert dist.count == total_hist.count
        assert dist.histograms() == hists
        assert dist.sketches() == sketches
        assert dist.histogram() == total_hist
        assert dist.sketch() == total_sketch

    def test_zero_rtt_takes_stagewise_path(self):
        dist = DistributionAnalytics(HistogramSpec(edges_ns=(10,)))
        dist.add(sample(FLOW_A, 0))
        assert dist.count == 1
        assert dist.histogram().counts[0] == 1
        reference = QuantileSketch()
        reference.add(0)
        assert dist.sketch(FLOW_A) == reference
        assert dist.sketch().zero_count == 1

    def test_prefix_key_fast_path_matches_key_fn(self):
        key_fn = DstPrefixKey(24)
        spec = HistogramSpec.log_bins(8)
        fast = DistributionAnalytics(spec, key_fn=key_fn)
        samples = self._samples()
        for s in samples:
            fast.add(s)
        hists, sketches, _, _ = references(samples, spec, key_fn)
        assert fast.histograms() == hists
        assert fast.sketches() == sketches

    def test_memo_survives_midstream_flush(self):
        # A read between adds changes nothing: later adds land in the
        # same registers as in a run never read.
        full = DistributionAnalytics(HistogramSpec.log_bins(8))
        split = DistributionAnalytics(HistogramSpec.log_bins(8))
        samples = self._samples()
        for s in samples:
            full.add(s)
        mid = len(samples) // 2
        for s in samples[:mid]:
            split.add(s)
        _ = split.count
        for s in samples[mid:]:
            split.add(s)
        assert split == full

    def test_negative_rtt_refused_without_a_trace(self):
        dist = DistributionAnalytics(HistogramSpec.log_bins(8))
        dist.add(sample(FLOW_A, 5 * MS))
        before = pickle.dumps(dist)
        with pytest.raises(ValueError):
            dist.add(sample(FLOW_B, -1))
        assert pickle.dumps(dist) == before

    def test_equality_sees_the_sketch(self):
        # Equal histograms (one bin, same sum/min/max) but different
        # medians: the stages differ, and == must say so.
        a = DistributionAnalytics()
        b = DistributionAnalytics()
        for ms in (1.00, 1.10, 1.10, 1.20):
            a.add(sample(FLOW_A, int(ms * MS)))
        for ms in (1.00, 1.05, 1.15, 1.20):
            b.add(sample(FLOW_A, int(ms * MS)))
        assert a.histogram() == b.histogram()
        assert a.percentiles()[50.0] != b.percentiles()[50.0]
        assert a != b

    def test_equality_compares_configuration(self):
        spec = HistogramSpec.log_bins(8)
        base = DistributionAnalytics(spec)
        assert base == DistributionAnalytics(spec)
        for other in (DistributionAnalytics(HistogramSpec.log_bins(9)),
                      DistributionAnalytics(spec, alpha=0.02),
                      DistributionAnalytics(spec, max_buckets=64),
                      DistributionAnalytics(spec, quantiles=(50.0,)),
                      DistributionAnalytics(spec, key_fn=DstPrefixKey(24))):
            assert base != other

    def test_total_count_is_current_after_every_add(self):
        dist = DistributionAnalytics(HistogramSpec.log_bins(8))
        for n, s in enumerate(self._samples(), start=1):
            dist.add(s)
            assert dist.histogram().count == n
            assert dist.sketch().count == n

    def test_inner_delegation(self):
        dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                     inner=CollectAllAnalytics())
        for s in self._samples():
            dist.add(s)
        assert len(dist.samples) == 200
        bare = DistributionAnalytics(HistogramSpec.log_bins(8))
        with pytest.raises(AttributeError):
            _ = bare.samples

    def test_pickle_bytes_independent_of_read_history(self):
        samples = self._samples()
        read_mid = DistributionAnalytics(HistogramSpec.log_bins(8))
        never_read = DistributionAnalytics(HistogramSpec.log_bins(8))
        for i, s in enumerate(samples):
            read_mid.add(s)
            never_read.add(s)
            if i == 50:
                _ = read_mid.percentiles()
        assert pickle.dumps(read_mid) == pickle.dumps(never_read)

    def test_pickle_roundtrip_keeps_accepting_samples(self):
        dist = DistributionAnalytics(HistogramSpec.log_bins(8))
        samples = self._samples()
        mid = len(samples) // 2
        for s in samples[:mid]:
            dist.add(s)
        resumed = pickle.loads(pickle.dumps(dist))
        for s in samples[mid:]:
            resumed.add(s)
        full = DistributionAnalytics(HistogramSpec.log_bins(8))
        for s in samples:
            full.add(s)
        assert resumed == full
        assert pickle.dumps(resumed) == pickle.dumps(full)

    def test_snapshot_shares_stage_state_without_inner(self):
        # The snapshot carries the stage's state, not its inner module,
        # as a copy: later adds to the live stage leave it unchanged.
        dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                     inner=CollectAllAnalytics())
        for s in self._samples():
            dist.add(s)
        snapshot = dist.distribution_snapshot()
        assert snapshot.inner is None
        assert snapshot == dist
        assert snapshot.count == dist.count
        dist.add(sample(FLOW_A, 7 * MS))
        assert snapshot.count == dist.count - 1

    def test_merge_rejects_quantile_mismatch(self):
        a = DistributionAnalytics(HistogramSpec.log_bins(8),
                                  quantiles=(50.0,))
        b = DistributionAnalytics(HistogramSpec.log_bins(8),
                                  quantiles=(99.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_rejects_key_fn_mismatch(self):
        a = DistributionAnalytics(HistogramSpec.log_bins(8),
                                  key_fn=DstPrefixKey(24))
        b = DistributionAnalytics(HistogramSpec.log_bins(8),
                                  key_fn=DstPrefixKey(16))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_percentiles_reports_configured_quantiles(self):
        dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                     quantiles=(50.0, 99.0))
        assert dist.percentiles() == {}
        for s in self._samples():
            dist.add(s)
        result = dist.percentiles()
        assert set(result) == {50.0, 99.0}
        assert result[50.0] <= result[99.0]

    def test_factory_is_picklable_and_builds_fresh_instances(self):
        factory = DistributionFactory(
            spec=HistogramSpec.log_bins(8),
            key_fn=DstPrefixKey(24),
            inner_factory=CollectAllAnalytics,
        )
        rebuilt = pickle.loads(pickle.dumps(factory))
        one, two = rebuilt(), rebuilt()
        one.add(sample(FLOW_A, 5 * MS))
        assert one.count == 1 and two.count == 0
        assert isinstance(one.inner, CollectAllAnalytics)


class TestDescribeKey:
    def test_flow_key_uses_describe(self):
        assert describe_key(FLOW_A) == FLOW_A.describe()

    def test_prefix_key_renders_cidr(self):
        assert describe_key(0x10000100, DstPrefixKey(24)) == "16.0.1.0/24"

    def test_bare_int_renders_dotted_quad(self):
        assert describe_key(0x10000105) == "16.0.1.5"


rtt_lists = st.lists(
    st.integers(min_value=1, max_value=2_000 * MS), min_size=0, max_size=60
)


def _fill(values, start=0):
    dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                 key_fn=DstPrefixKey(24))
    for i, rtt in enumerate(values, start=start):
        flow = FLOW_A if i % 2 else FLOW_B
        dist.add(sample(flow, rtt, t_ns=i))
    return dist


class TestMergeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(rtt_lists, rtt_lists)
    def test_commutative(self, xs, ys):
        ab = _fill(xs)
        ab.merge(_fill(ys, start=len(xs)))
        ba = _fill(ys, start=len(xs))
        ba.merge(_fill(xs))
        assert ab == ba

    @settings(max_examples=40, deadline=None)
    @given(rtt_lists, rtt_lists, rtt_lists)
    def test_associative(self, xs, ys, zs):
        def build():
            return (_fill(xs), _fill(ys, start=len(xs)),
                    _fill(zs, start=len(xs) + len(ys)))

        a, b, c = build()
        b.merge(c)
        a.merge(b)
        a2, b2, c2 = build()
        a2.merge(b2)
        a2.merge(c2)
        assert a == a2

    @settings(max_examples=40, deadline=None)
    @given(rtt_lists, st.integers(min_value=2, max_value=4))
    def test_sharded_equals_serial(self, xs, shards):
        serial = _fill(xs)
        parts = [DistributionAnalytics(HistogramSpec.log_bins(8),
                                       key_fn=DstPrefixKey(24))
                 for _ in range(shards)]
        for i, rtt in enumerate(xs):
            flow = FLOW_A if i % 2 else FLOW_B
            parts[hash(flow) % shards].add(sample(flow, rtt, t_ns=i))
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert merged == serial
        assert merged.histogram() == serial.histogram()
        assert merged.sketch() == serial.sketch()


#: Every public read of a stage, as a function of the stage.
READS = (
    lambda d: d.histogram(),
    lambda d: d.sketch(),
    lambda d: d.histograms(),
    lambda d: d.sketches(),
    lambda d: [(d.histogram(k), d.sketch(k)) for k in d.histograms()],
    lambda d: d.percentiles(),
    lambda d: d.count,
    lambda d: collect_distribution(MetricsRegistry(), d, "dart"),
    lambda d: d.state(),
    lambda d: d == d.distribution_snapshot(),
    lambda d: pickle.dumps(d),
    lambda d: d.distribution_snapshot().merge(d),
)


#: Five flows over three /24s, so each key function groups differently.
FLOWS = [FlowKey(src_ip=0x0A000001 + i, dst_ip=0x10000105 + (i % 3) * 256,
                 src_port=1000 + i, dst_port=443) for i in range(5)]

RTT_ROWS = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(1, 3_000 * MS)),
              st.integers(0, len(FLOWS) - 1)),
    max_size=40,
)


class TestState:
    """``state()`` is JSON-safe and ``from_state`` rebuilds the same
    registers, so decoding commutes with merging — the fleet's rule."""

    @staticmethod
    def _stage(rows, key_fn):
        dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                     key_fn=key_fn)
        for n, (rtt, flow) in enumerate(rows):
            dist.add(sample(FLOWS[flow], rtt, t_ns=n))
        return dist

    @settings(max_examples=60, deadline=None)
    @given(RTT_ROWS, RTT_ROWS,
           st.sampled_from((flow_key, DstPrefixKey(24), DstPrefixKey(0))))
    def test_round_trip_and_merge_commute(self, xs, ys, key_fn):
        a, b = self._stage(xs, key_fn), self._stage(ys, key_fn)
        decoded = DistributionAnalytics.from_state(
            json.loads(json.dumps(a.state())))
        assert decoded == a
        assert decoded.state() == a.state()
        merged = DistributionAnalytics.from_state(a.state())
        merged.merge(DistributionAnalytics.from_state(b.state()))
        direct = a.distribution_snapshot()
        direct.merge(b)
        assert merged == direct
        assert merged.histograms() == direct.histograms()
        assert merged.sketches() == direct.sketches()

    def test_unknown_key_function_is_not_encoded(self):
        dist = DistributionAnalytics(key_fn=lambda s: s.flow.src_ip)
        with pytest.raises(ValueError, match="key function"):
            dist.state()


class TestPureReads:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3_000 * MS),
                              st.booleans(),
                              st.one_of(st.none(),
                                        st.integers(0, len(READS) - 1))),
                    max_size=40))
    def test_reads_change_nothing(self, steps):
        read = _fill([])
        unread = _fill([])
        for n, (rtt, which, probe) in enumerate(steps, start=1):
            s = sample(FLOW_A if which else FLOW_B, rtt, t_ns=n)
            read.add(s)
            unread.add(s)
            assert read.histogram().count == n
            if probe is not None:
                READS[probe](read)
        assert read == unread
        assert pickle.dumps(read) == pickle.dumps(unread)


class TestCollapseOrder:
    """``max_buckets`` applied when a view is built equals QuantileSketch
    collapsing after every add and every merge, in any fold order."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**10),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False))
    def test_any_fold_order_matches_the_sketch(self, values, max_buckets,
                                               shards, rng):
        spec = HistogramSpec.log_bins(4)
        stages = [DistributionAnalytics(spec, max_buckets=max_buckets)
                  for _ in range(shards)]
        parts = [QuantileSketch(max_buckets=max_buckets)
                 for _ in range(shards)]
        eager = QuantileSketch(max_buckets=max_buckets)
        for i, rtt in enumerate(values):
            shard = rng.randrange(shards)
            stages[shard].add(sample(FLOW_A, rtt, t_ns=i))
            parts[shard].add(rtt)
            eager.add(rtt)
        order = list(range(shards))
        rng.shuffle(order)
        merged = stages[order[0]].distribution_snapshot()
        folded = parts[order[0]]
        for index in order[1:]:
            merged.merge(stages[index])
            folded.merge(parts[index])
        assert merged.sketch() == eager == folded
        assert merged.sketch(FLOW_A) == eager

"""Registry merge algebra: associative, commutative, copy-on-adopt.

Merging follows the repo's AdditiveCounters convention (everything adds
per labelset), which the cluster and the fleet depend on: shard and
agent registries may arrive in any order and any grouping, and the
merged view must not change.  The hypothesis tests pin exactly that on
the wire form, over integer-valued operations so float addition cannot
blur equality.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import merge_telemetry
from repro.obs import MetricsRegistry, collect_registry, to_json

LABELS = ("x", "y", "z")

#: One telemetry "event": which metric kind it touches, which labelset,
#: and the integer amount/observation.
op_strategy = st.tuples(
    st.sampled_from(["counter", "gauge", "histogram"]),
    st.sampled_from(LABELS),
    st.integers(min_value=0, max_value=8),
)
ops_strategy = st.lists(op_strategy, max_size=24)


def build_registry(ops):
    """Replay ops against a fresh registry; every run has equal shapes."""
    registry = MetricsRegistry()
    counter = registry.counter("t_events_total", "events", ("k",))
    gauge = registry.gauge("t_depth", "depth", ("k",))
    histogram = registry.histogram("t_cost", "cost", ("k",),
                                   buckets=(1.0, 3.0, 6.0))
    for kind, label, amount in ops:
        if kind == "counter":
            counter.inc((label,), amount)
        elif kind == "gauge":
            gauge.inc((label,), amount)
        else:
            histogram.observe(amount, (label,))
    return registry


def fold(*registries):
    return merge_telemetry(registries).to_wire()


class TestMergeAlgebra:
    @given(a=ops_strategy, b=ops_strategy)
    def test_commutative(self, a, b):
        assert fold(build_registry(a), build_registry(b)) == \
            fold(build_registry(b), build_registry(a))

    @given(a=ops_strategy, b=ops_strategy, c=ops_strategy)
    def test_associative(self, a, b, c):
        ra, rb, rc = build_registry(a), build_registry(b), build_registry(c)
        left = fold(merge_telemetry([ra, rb]), rc)
        right = fold(ra, merge_telemetry([rb, rc]))
        assert left == right

    @given(a=ops_strategy, b=ops_strategy)
    def test_merge_equals_concatenated_history(self, a, b):
        # Merging two shards' registries == one shard seeing both streams.
        assert fold(build_registry(a), build_registry(b)) == \
            build_registry(list(a) + list(b)).to_wire()

    @given(ops=ops_strategy)
    def test_identity(self, ops):
        assert fold(build_registry(ops)) == build_registry(ops).to_wire()

    @given(a=ops_strategy, b=ops_strategy)
    def test_absorb_matches_merge(self, a, b):
        # Coordinator path: folding worker registries one by one into a
        # live registry equals the cluster's fold, and copying that fold
        # over an emitter's registry (what the coordinator's collector
        # does per emission) reproduces it exactly.
        live = MetricsRegistry()
        live.merge(build_registry(a))
        live.merge(build_registry(b))
        merged = fold(build_registry(a), build_registry(b))
        assert live.to_wire() == merged
        emitted = MetricsRegistry()
        collect_registry(emitted, live)
        collect_registry(emitted, live)
        assert emitted.to_wire() == merged

    @given(a=ops_strategy, b=ops_strategy)
    def test_inputs_never_mutated(self, a, b):
        ra, rb = build_registry(a), build_registry(b)
        wire_a, wire_b = ra.to_wire(), rb.to_wire()
        merged = MetricsRegistry().merge(ra).merge(rb)
        # Mutating the fold must not reach back into what it adopted.
        merged.get("t_cost").observe(2, ("x",))
        merged.get("t_events_total").inc(("x",), 5)
        assert ra.to_wire() == wire_a
        assert rb.to_wire() == wire_b


class TestMergeValidation:
    def test_sequence_takes_max(self):
        # The emission index is the renderer's argument, not merged
        # state: the fold is the same whatever indices its inputs were
        # emitted at, and the caller stamps the newest one.
        three = MetricsRegistry.from_wire(build_registry([]).to_wire(3))
        seven = MetricsRegistry.from_wire(build_registry([]).to_wire(7))
        merged = merge_telemetry([three, seven])
        assert merged.to_wire(0) == fold(build_registry([]),
                                         build_registry([]))
        assert merged.to_wire(7)["sequence"] == 7
        assert '"sequence":7,' in to_json(merged, sequence=7)

    def test_kind_mismatch_rejected(self):
        a = build_registry([])
        b = MetricsRegistry()
        b.counter("t_depth", "depth", ("k",))
        with pytest.raises(ValueError, match="incompatible shapes"):
            a.merge(b)

    def test_bucket_mismatch_rejected(self):
        a = build_registry([("histogram", "x", 1)])
        b = MetricsRegistry()
        b.histogram("t_cost", "cost", ("k",), buckets=(9.0,)).observe(1, ("x",))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b)

    def test_name_mismatch_rejected(self):
        a = build_registry([])
        with pytest.raises(ValueError, match="cannot merge"):
            a.get("t_depth").merge(a.get("t_events_total"))


def _histogram_registry(buckets):
    registry = MetricsRegistry()
    registry.histogram("t_cost", "cost", ("k",), buckets=buckets).observe(
        25.0, ("x",)
    )
    return registry


@pytest.mark.parametrize("other", [(10.0, 20.0, 40.0), (10.0, 20.0)],
                         ids=["other-bounds", "other-bin-count"])
def test_histogram_shape_mismatch_raises_both_ways(other):
    # A 25.0 under bounds (10, 20, 30) must never be added bin by bin
    # into another layout, by a fold or by a collector.
    for first, second in ((10.0, 20.0, 30.0), other), (other, (10.0, 20.0, 30.0)):
        mine = _histogram_registry(first)
        before = mine.to_wire()
        with pytest.raises(ValueError, match="bucket bounds differ"):
            mine.merge(_histogram_registry(second))
        assert mine.to_wire() == before
        with pytest.raises(ValueError):
            collect_registry(_histogram_registry(first),
                             _histogram_registry(second))

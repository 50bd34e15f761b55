"""Unit and property tests for mod-2**32 sequence arithmetic."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.seqspace import (
    SEQ_MASK,
    SEQ_SPACE,
    seq_add,
    seq_between,
    seq_gt,
    seq_le,
    seq_lt,
    seq_sub,
    wraps,
)

seqs = st.integers(min_value=0, max_value=SEQ_MASK)
small = st.integers(min_value=0, max_value=1 << 20)


class TestBasics:
    def test_add_wraps(self):
        assert seq_add(SEQ_MASK, 1) == 0

    def test_add_no_wrap(self):
        assert seq_add(100, 50) == 150

    def test_sub_forward_distance(self):
        assert seq_sub(150, 100) == 50

    def test_sub_across_wrap(self):
        assert seq_sub(10, SEQ_MASK - 9) == 20

    def test_lt_simple(self):
        assert seq_lt(100, 200)
        assert not seq_lt(200, 100)

    def test_lt_across_wrap(self):
        assert seq_lt(SEQ_MASK - 5, 5)
        assert not seq_lt(5, SEQ_MASK - 5)

    def test_lt_irreflexive(self):
        assert not seq_lt(42, 42)

    def test_le_ge_at_equal(self):
        assert seq_le(7, 7)
        assert not seq_gt(7, 7)

    def test_gt_mirror_of_lt(self):
        assert seq_gt(200, 100)
        assert seq_gt(5, SEQ_MASK - 5)


class TestBetween:
    def test_half_open_interval(self):
        # (lo, hi]: excludes lo, includes hi.
        assert not seq_between(100, 100, 200)
        assert seq_between(100, 101, 200)
        assert seq_between(100, 200, 200)
        assert not seq_between(100, 201, 200)

    def test_empty_interval(self):
        assert not seq_between(100, 100, 100)
        assert not seq_between(100, 50, 100)

    def test_across_wrap(self):
        lo = SEQ_MASK - 10
        hi = 10
        assert seq_between(lo, 0, hi)
        assert seq_between(lo, hi, hi)
        assert not seq_between(lo, lo, hi)
        assert not seq_between(lo, 11, hi)

    def test_outside_below(self):
        assert not seq_between(1000, 999, 2000)


class TestWraps:
    def test_no_wrap(self):
        assert not wraps(0, 100)

    def test_exact_wrap(self):
        assert wraps(SEQ_MASK, 1)

    def test_wrap_in_middle(self):
        assert wraps(SEQ_SPACE - 10, 20)


class TestProperties:
    @given(seqs, small)
    def test_add_then_sub_roundtrips(self, a, d):
        assert seq_sub(seq_add(a, d), a) == d

    @given(seqs, st.integers(min_value=1, max_value=(1 << 31) - 1))
    def test_lt_after_forward_step(self, a, d):
        # Moving forward by less than half the space preserves order.
        assert seq_lt(a, seq_add(a, d))

    @given(seqs, seqs)
    def test_lt_antisymmetric(self, a, b):
        if a != b and seq_sub(a, b) != 1 << 31:
            assert seq_lt(a, b) != seq_lt(b, a)

    @given(seqs)
    @example(0)
    def test_half_space_apart_is_incomparable(self, a):
        # RFC 1982 §3.2: (0, 2**31) and every rotation of it.
        b = seq_add(a, 1 << 31)
        for x, y in ((a, b), (b, a)):
            assert not seq_lt(x, y) and not seq_le(x, y)
            assert not seq_gt(x, y)

    @given(seqs, small, small)
    def test_between_window_membership(self, lo, off, width):
        # Any offset in (0, width] from lo lies inside (lo, lo+width].
        width = width + 1
        off = (off % width) + 1
        hi = seq_add(lo, width)
        assert seq_between(lo, seq_add(lo, off), hi)

    @given(seqs, small)
    def test_sub_is_inverse_distance(self, a, d):
        b = seq_add(a, d)
        assert seq_sub(a, b) == (SEQ_SPACE - d) % SEQ_SPACE

"""Modulo-2**32 TCP sequence-number arithmetic.

TCP sequence and acknowledgment numbers live in a 32-bit circular space
(RFC 793, RFC 1982).  Both Dart's Range Tracker and the tcptrace baseline
must compare and advance sequence numbers correctly across the wraparound
point.  This module centralizes that arithmetic so no other module ever
does raw ``<`` / ``>`` comparisons on sequence numbers.

Comparisons use the standard serial-number convention: ``a`` is *before*
``b`` when the forward distance from ``a`` to ``b`` is less than half the
space.  Two values exactly half the space apart are incomparable
(RFC 1982 §3.2): neither precedes the other.
"""

from __future__ import annotations

SEQ_SPACE = 1 << 32
SEQ_MASK = SEQ_SPACE - 1
_HALF = 1 << 31


def seq_add(a: int, delta: int) -> int:
    """Return ``a + delta`` wrapped into the 32-bit sequence space."""
    return (a + delta) & SEQ_MASK


def seq_sub(a: int, b: int) -> int:
    """Return the forward distance from ``b`` to ``a`` (mod 2**32)."""
    return (a - b) & SEQ_MASK


def seq_lt(a: int, b: int) -> bool:
    """True when ``a`` precedes ``b`` in circular sequence order."""
    if a == b:
        return False
    return seq_sub(b, a) < _HALF


def seq_le(a: int, b: int) -> bool:
    """True when ``a`` precedes or equals ``b`` in circular order."""
    return a == b or seq_lt(a, b)


def seq_gt(a: int, b: int) -> bool:
    """True when ``a`` follows ``b`` in circular sequence order."""
    return seq_lt(b, a)


def seq_between(lo: int, x: int, hi: int) -> bool:
    """True when ``x`` is inside the half-open circular interval (lo, hi].

    This is the membership test Dart's Range Tracker uses for the
    measurement range: an ACK number ``x`` is valid when
    ``left < x <= right``.
    """
    if lo == hi:
        return False
    return seq_sub(x, lo) <= seq_sub(hi, lo) and x != lo


def wraps(seq: int, payload: int) -> bool:
    """True when a segment starting at ``seq`` with ``payload`` bytes
    crosses the 2**32 wraparound point (i.e. its end index wraps)."""
    return seq + payload >= SEQ_SPACE

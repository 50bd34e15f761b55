"""IP address parsing/formatting helpers.

Addresses are carried through the library as plain integers (fast to hash
and compare in the hot monitoring path); this module converts between
integers, dotted-quad / colon-hex strings, and packed bytes.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Sequence, Tuple

IPV4_MAX = (1 << 32) - 1
IPV6_MAX = (1 << 128) - 1


def ipv4_to_int(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer."""
    return int(ipaddress.IPv4Address(text))


def int_to_ipv4(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address."""
    if not 0 <= value <= IPV4_MAX:
        raise ValueError(f"IPv4 address out of range: {value}")
    return "%d.%d.%d.%d" % (value >> 24, value >> 16 & 0xFF,
                            value >> 8 & 0xFF, value & 0xFF)


def ipv6_to_int(text: str) -> int:
    """Parse a colon-hex IPv6 address into an integer."""
    return int(ipaddress.IPv6Address(text))


def int_to_ipv6(value: int) -> str:
    """Format an integer as a colon-hex IPv6 address."""
    if not 0 <= value <= IPV6_MAX:
        raise ValueError(f"IPv6 address out of range: {value}")
    return str(ipaddress.IPv6Address(value))


def ipv4_to_bytes(value: int) -> bytes:
    """Pack an integer IPv4 address into 4 network-order bytes."""
    return value.to_bytes(4, "big")


def bytes_to_ipv4(data: bytes) -> int:
    """Unpack 4 network-order bytes into an integer IPv4 address."""
    if len(data) != 4:
        raise ValueError("IPv4 address must be 4 bytes")
    return int.from_bytes(data, "big")


def ipv6_to_bytes(value: int) -> bytes:
    """Pack an integer IPv6 address into 16 network-order bytes."""
    return value.to_bytes(16, "big")


def bytes_to_ipv6(data: bytes) -> int:
    """Unpack 16 network-order bytes into an integer IPv6 address."""
    if len(data) != 16:
        raise ValueError("IPv6 address must be 16 bytes")
    return int.from_bytes(data, "big")


def prefix_of(addr: int, prefix_len: int, *, bits: int = 32) -> int:
    """Return the network prefix of ``addr`` (e.g. /24 aggregation key).

    Dart's analytics module aggregates RTT samples per prefix; this is the
    key function used for that aggregation.
    """
    if not 0 <= prefix_len <= bits:
        raise ValueError(f"prefix length {prefix_len} out of range for /{bits}")
    shift = bits - prefix_len
    return (addr >> shift) << shift


def format_prefix(network: int, prefix_len: int) -> str:
    """Human-readable ``a.b.c.d/len`` form of an IPv4 prefix."""
    return f"{int_to_ipv4(prefix_of(network, prefix_len))}/{prefix_len}"


@dataclass(frozen=True)
class InternalNetwork:
    """Membership test for the campus ("internal") side of the monitor.

    Used both to label legs (internal vs external) and by trace tooling
    to group clients into subnets (e.g. wired vs wireless, Fig 6).
    Prefixes are ``(network, length)`` for IPv4 or
    ``(network, length, 128)`` for IPv6; addresses above 2**32 are
    matched against the IPv6 set.  Host bits are cleared and a length
    outside the family's range is refused here, at construction, so a
    set that exists answers every address.  Immutable, hashable and
    picklable: a monitor holding one crosses a process boundary or
    lands in a checkpoint.
    """

    #: Normalised ``(network, length, bits)`` triples, in given order.
    prefixes: Sequence[tuple]
    _v4: Tuple[Tuple[int, int], ...] = field(init=False, repr=False,
                                            compare=False)
    _v6: Tuple[Tuple[int, int], ...] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        normalised = []
        for prefix in self.prefixes:
            bits = 128 if len(prefix) == 3 and prefix[2] == 128 else 32
            network, length = prefix[0], prefix[1]
            normalised.append((prefix_of(network, length, bits=bits),
                               length, bits))
        object.__setattr__(self, "prefixes", tuple(normalised))
        # (network, mask) pairs: one AND and one compare per prefix.
        for bits, name in ((32, "_v4"), (128, "_v6")):
            object.__setattr__(self, name, tuple(
                (network, ((1 << length) - 1) << (bits - length))
                for network, length, family in normalised
                if family == bits))

    def __contains__(self, addr: int) -> bool:
        for network, mask in self._v6 if addr >= (1 << 32) else self._v4:
            if addr & mask == network:
                return True
        return False

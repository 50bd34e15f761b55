"""Flow identification: 4-tuples, direction, and compact signatures.

A *flow* here is a unidirectional TCP 4-tuple as seen from the data
sender: the SEQ direction's packets carry the tuple as-is, and the ACK
direction's packets carry it reversed (paper Fig 1/Fig 2).  The Range
Tracker and Packet Tracker are keyed by the SEQ-direction tuple, so an
arriving ACK is matched after reversing its tuple.

Performance notes (the per-packet hot path runs through this module):

* ``FlowKey`` precomputes its hash at construction and caches its key
  bytes, raw CRC, 4-byte signature and address text lazily — each is
  computed once per flow object instead of once per packet (or sample).
* :func:`flow_of` / :func:`ack_target_flow` *intern* keys, so every
  packet of a flow reuses one ``FlowKey`` object.  Table lookups then
  hit the dict fast path (identity before ``__eq__``), and the lazy
  caches above amortise across the whole trace.  Interning is an
  optimisation only: un-interned keys (built directly, or arriving from
  another process) compare and hash identically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

from ..net.inet import int_to_ipv4, int_to_ipv6
from ..net.packet import PacketRecord
from .hashing import _mix32, signature32


@dataclass(frozen=True, slots=True)
class FlowKey:
    """A unidirectional TCP flow 4-tuple."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    ipv6: bool = False
    #: Cached ``hash()`` (eager) and key-byte/CRC/signature/address-text
    #: values (lazy).  Excluded from equality/repr and from the pickle;
    #: they are pure functions of the tuple.
    _hash: int = field(init=False, repr=False, compare=False, default=0)
    _bytes: Optional[bytes] = field(init=False, repr=False, compare=False,
                                    default=None)
    _crc: Optional[int] = field(init=False, repr=False, compare=False,
                                default=None)
    _sig: Optional[int] = field(init=False, repr=False, compare=False,
                                default=None)
    _mix0: Optional[int] = field(init=False, repr=False, compare=False,
                                 default=None)
    _text: Optional[Tuple[str, str]] = field(init=False, repr=False,
                                             compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash((self.src_ip, self.dst_ip, self.src_port, self.dst_port,
                  self.ipv6)),
        )

    def __hash__(self) -> int:
        return self._hash

    def reversed(self) -> "FlowKey":
        """The same connection seen from the opposite direction."""
        return intern_flow(self.dst_ip, self.src_ip, self.dst_port,
                           self.src_port, self.ipv6)

    def canonical(self) -> "FlowKey":
        """Direction-independent form (smaller endpoint first).

        Used when counting *connections* rather than unidirectional flows,
        e.g. for the handshake statistics behind Fig 10.
        """
        mine = (self.src_ip, self.src_port)
        theirs = (self.dst_ip, self.dst_port)
        return self if mine <= theirs else self.reversed()

    def key_bytes(self) -> bytes:
        """Raw bytes hashed into table indices and signatures.

        IPv4 uses the paper's 12-byte layout; IPv6 concatenates the full
        16-byte addresses (paper §7 notes the larger key raises collision
        rates, which the simulator therefore reproduces faithfully).
        """
        cached = self._bytes
        if cached is None:
            addr_len = 16 if self.ipv6 else 4
            cached = (
                self.src_ip.to_bytes(addr_len, "big")
                + self.dst_ip.to_bytes(addr_len, "big")
                + self.src_port.to_bytes(2, "big")
                + self.dst_port.to_bytes(2, "big")
            )
            object.__setattr__(self, "_bytes", cached)
        return cached

    @property
    def key_crc(self) -> int:
        """Unsalted ``crc32(key_bytes())`` — the table-index seed, cached
        so :attr:`mix0` never re-walks the key bytes."""
        crc = self._crc
        if crc is None:
            crc = zlib.crc32(self.key_bytes())
            object.__setattr__(self, "_crc", crc)
        return crc

    @property
    def mix0(self) -> int:
        """Stage-0 avalanche mix of :attr:`key_crc`.

        ``stage_index(key_bytes(), 0, size)`` is ``_mix32(key_crc) % size``
        (stage 0's salt is zero), so the Range Tracker, which indexes by
        the stage-0 hash, reduces each lookup to one modulo.
        """
        mix = self._mix0
        if mix is None:
            mix = _mix32(self.key_crc)
            object.__setattr__(self, "_mix0", mix)
        return mix

    @property
    def signature(self) -> int:
        """The compact 4-byte signature stored in table records."""
        sig = self._sig
        if sig is None:
            sig = signature32(self.key_bytes())
            object.__setattr__(self, "_sig", sig)
        return sig

    def __reduce__(self):
        # Rebuilt from the 4-tuple alone, through intern_flow: the lazy
        # caches stay out of the pickle by construction (checkpoints are
        # pinned byte-identical across a kill/resume), and a resumed run
        # gets the interned object its packets go on to look up.
        return intern_flow, (self.src_ip, self.dst_ip, self.src_port,
                             self.dst_port, self.ipv6)

    @property
    def address_text(self) -> Tuple[str, str]:
        """The source and destination addresses as text, formatted once
        per flow object (the text sinks write them on every sample)."""
        text = self._text
        if text is None:
            fmt = int_to_ipv6 if self.ipv6 else int_to_ipv4
            text = (fmt(self.src_ip), fmt(self.dst_ip))
            object.__setattr__(self, "_text", text)
        return text

    def describe(self) -> str:
        """Render as ``src:port > dst:port``."""
        src, dst = self.address_text
        return f"{src}:{self.src_port} > {dst}:{self.dst_port}"


@lru_cache(maxsize=1 << 20)
def intern_flow(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
                ipv6: bool = False) -> FlowKey:
    """The canonical ``FlowKey`` object for a 4-tuple.

    Bounded (LRU): an adversarial trace with more live flows than the
    cache holds degrades to plain construction, never unbounded memory.
    """
    return FlowKey(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                   dst_port=dst_port, ipv6=ipv6)


def flow_of(record: PacketRecord) -> FlowKey:
    """The flow 4-tuple of a packet, in its own direction of travel."""
    return intern_flow(record.src_ip, record.dst_ip, record.src_port,
                       record.dst_port, record.ipv6)


def ack_target_flow(record: PacketRecord) -> FlowKey:
    """The SEQ-direction flow an ACK packet acknowledges.

    This is the packet's 4-tuple reversed (paper §2.1: "with the source
    and destination fields of the 4-tuple reversed").
    """
    return intern_flow(record.dst_ip, record.src_ip, record.dst_port,
                       record.src_port, record.ipv6)

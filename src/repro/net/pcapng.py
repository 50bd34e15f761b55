"""pcapng (next-generation capture) file reading, from scratch.

Modern tcpdump/wireshark default to pcapng, so the offline tooling
accepts it alongside classic pcap.  Supported blocks:

* Section Header Block (0x0A0D0D0A) — byte order, section boundaries;
* Interface Description Block (0x00000001) — linktype and the
  ``if_tsresol`` option (timestamp resolution, default 10^-6);
* Enhanced Packet Block (0x00000006) — timestamped packets;
* Simple Packet Block (0x00000003) — packets without timestamps
  (reported at t=0, in file order);
* all other blocks are skipped.

Only reading is implemented; captures are *written* as classic pcap
(:mod:`repro.net.pcap`), which every tool reads.

This module is also where the two formats meet: :class:`FrameReader`
is the one incremental reader every capture path shares — the offline
readers below, the QUIC reader and all three streaming sources — so
format sniffing, resume offsets, the truncated-capture retry contract
and the linktype policy each live in exactly one place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import (
    Any,
    BinaryIO,
    Callable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .packet import PacketRecord
from .pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    MAGIC_MICRO,
    MAGIC_NANO,
    PathLike,
    PcapFormatError,
    PcapReader,
    TruncatedCapture,
    read_packets,
)

BLOCK_SHB = 0x0A0D0D0A
BLOCK_IDB = 0x00000001
BLOCK_SPB = 0x00000003
BLOCK_EPB = 0x00000006

BYTE_ORDER_MAGIC = 0x1A2B3C4D

OPT_ENDOFOPT = 0
OPT_IF_TSRESOL = 9

#: Largest block the reader will buffer (Wireshark's limit): a garbage
#: length must fail loudly, not turn into a gigabyte read and a
#: TruncatedCapture that a tail would wait on forever.
MAX_BLOCK_BYTES = 16 << 20

#: One raw capture frame: ``(timestamp_ns, is_ethernet, frame_bytes)``.
Frame = Tuple[int, bool, bytes]


@dataclass
class _Interface:
    linktype: int
    ticks_per_second: int


def _parse_options(data: bytes, order: str):
    """Yield (code, value) pairs from an options region."""
    i = 0
    while i + 4 <= len(data):
        code, length = struct.unpack_from(order + "HH", data, i)
        i += 4
        if code == OPT_ENDOFOPT:
            return
        value = data[i : i + length]
        yield code, value
        i += (length + 3) & ~3  # options are padded to 32 bits


def _tsresol_to_ticks(value: bytes) -> int:
    """Decode if_tsresol: ticks of the interface clock per second."""
    if not value:
        return 1_000_000
    raw = value[0]
    if raw & 0x80:
        return 1 << (raw & 0x7F)
    return 10 ** raw


class PcapngReader:
    """Iterates ``(timestamp_ns, linktype, frame_bytes)`` tuples.

    Like :class:`~repro.net.pcap.PcapReader`, the reader is fully
    incremental: it consumes one block at a time, tracks the offset of
    the next unconsumed block in :attr:`resume_offset`, and raises
    :class:`~repro.net.pcap.TruncatedCapture` (after seeking back to
    the block start) when the stream ends mid-block, so a tailing
    caller can wait for more bytes and call ``next()`` again.
    """

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._order = "<"
        self._interfaces: List[_Interface] = []
        self._offset = 0
        block = self._read_block()
        if block is None:
            # Zero bytes so far: possibly an in-flight capture.
            raise TruncatedCapture("empty pcapng stream", resume_offset=0)
        if block[0] != BLOCK_SHB:
            raise PcapFormatError("not a pcapng file (no section header)")
        self._handle_shb(block[1])

    @property
    def resume_offset(self) -> int:
        """Byte offset of the first block not yet fully consumed."""
        return self._offset

    def skip_to(self, offset: int) -> None:
        """Fast-forward to a previously recorded resume offset.

        pcapng blocks carry section and interface state, so resuming
        must replay the block *structure* (without decoding packets)
        from the start of the file up to the offset.
        """
        while self._offset < offset:
            block = self._read_block()
            if block is None:
                raise PcapFormatError(
                    f"pcapng resume offset {offset} is beyond end of file"
                )
            block_type, body = block
            if block_type == BLOCK_SHB:
                self._handle_shb(body)
            elif block_type == BLOCK_IDB:
                self._handle_idb(body)
        if self._offset != offset:
            raise PcapFormatError(
                f"pcapng resume offset {offset} is not on a block boundary"
            )

    # -- low-level block framing ------------------------------------------------

    def _rewind(self, offset: int) -> None:
        """Back the stream up so a retry re-reads from a block start."""
        try:
            self._stream.seek(offset)
        except (OSError, ValueError):
            pass  # non-seekable stream; retry is not possible anyway

    def _read_block(self) -> Optional[Tuple[int, bytes]]:
        """Consume one whole block; None at a clean end-of-stream."""
        start = self._offset
        header = self._stream.read(8)
        if not header:
            return None
        if len(header) < 8:
            self._rewind(start)
            raise TruncatedCapture("partial pcapng block header",
                                   resume_offset=start)
        block_type = struct.unpack_from(self._order + "I", header, 0)[0]
        consumed = 8
        if block_type == BLOCK_SHB:
            # Byte order may change at a section boundary; peek at the
            # byte-order magic to decide how to read the length.
            magic_bytes = self._stream.read(4)
            if len(magic_bytes) < 4:
                self._rewind(start)
                raise TruncatedCapture("partial section header",
                                       resume_offset=start)
            (magic_le,) = struct.unpack("<I", magic_bytes)
            self._order = "<" if magic_le == BYTE_ORDER_MAGIC else ">"
            consumed += 4
        # total_length covers: type(4) + length(4) + body + trailer(4).
        (total_length,) = struct.unpack(self._order + "I", header[4:8])
        body_length = total_length - consumed - 4
        if body_length < 0 or total_length > MAX_BLOCK_BYTES:
            raise PcapFormatError(f"bad pcapng block length {total_length}")
        body = self._stream.read(body_length)
        if len(body) < body_length:
            self._rewind(start)
            raise TruncatedCapture("partial pcapng block body",
                                   resume_offset=start)
        trailer = self._stream.read(4)
        if len(trailer) < 4:
            self._rewind(start)
            raise TruncatedCapture("missing pcapng block trailer",
                                   resume_offset=start)
        self._offset = start + total_length
        return block_type, body

    # -- block handlers -----------------------------------------------------------

    def _handle_shb(self, body: bytes) -> None:
        self._interfaces = []  # interfaces are per-section

    def _handle_idb(self, body: bytes) -> None:
        if len(body) < 8:
            raise PcapFormatError("short interface description block")
        (linktype,) = struct.unpack_from(self._order + "H", body, 0)
        ticks = 1_000_000
        for code, value in _parse_options(body[8:], self._order):
            if code == OPT_IF_TSRESOL:
                ticks = _tsresol_to_ticks(value)
        self._interfaces.append(_Interface(linktype, ticks))

    def _interface(self, index: int) -> _Interface:
        if index >= len(self._interfaces):
            raise PcapFormatError(
                f"packet references undeclared interface {index}"
            )
        return self._interfaces[index]

    # -- iteration ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, int, bytes]]:
        return self

    def __next__(self) -> Tuple[int, int, bytes]:
        while True:
            block = self._read_block()
            if block is None:
                raise StopIteration
            block_type, body = block
            if block_type == BLOCK_SHB:
                self._handle_shb(body)
            elif block_type == BLOCK_IDB:
                self._handle_idb(body)
            elif block_type == BLOCK_EPB:
                return self._parse_epb(body)
            elif block_type == BLOCK_SPB:
                return self._parse_spb(body)
            # anything else: skip

    def _parse_epb(self, body: bytes) -> Tuple[int, int, bytes]:
        if len(body) < 20:
            raise PcapFormatError("short enhanced packet block")
        if_index, ts_high, ts_low, captured, _original = struct.unpack_from(
            self._order + "IIIII", body, 0
        )
        interface = self._interface(if_index)
        ticks = (ts_high << 32) | ts_low
        timestamp_ns = ticks * 1_000_000_000 // interface.ticks_per_second
        frame = body[20 : 20 + captured]
        if len(frame) < captured:
            raise PcapFormatError("truncated enhanced packet data")
        return timestamp_ns, interface.linktype, frame

    def _parse_spb(self, body: bytes) -> Tuple[int, int, bytes]:
        if len(body) < 4:
            raise PcapFormatError("short simple packet block")
        if not self._interfaces:
            raise PcapFormatError("simple packet block before any interface")
        (original,) = struct.unpack_from(self._order + "I", body, 0)
        interface = self._interfaces[0]
        # The captured length is bounded by the block body.
        frame = body[4 : 4 + original]
        return 0, interface.linktype, frame


def _is_ethernet(linktype: int) -> Optional[bool]:
    """The linktype policy: ``True`` for Ethernet, ``False`` for raw
    IP, ``None`` for a link layer the decoders do not speak."""
    if linktype == LINKTYPE_ETHERNET:
        return True
    if linktype == LINKTYPE_RAW:
        return False
    return None


def _sniff(stream: BinaryIO) -> str:
    """Name the capture format from the handle's first four bytes,
    leaving the handle at the start of the file."""
    magic = stream.read(4)
    stream.seek(0)
    if len(magic) < 4:
        # Possibly an in-flight capture whose first write has not
        # landed; a tailing caller waits and retries from 0.
        raise TruncatedCapture("file too short to be a capture",
                               resume_offset=0)
    (value_le,) = struct.unpack("<I", magic)
    (value_be,) = struct.unpack(">I", magic)
    if value_le == BLOCK_SHB:
        return "pcapng"
    if value_le in (MAGIC_MICRO, MAGIC_NANO) or value_be in (
        MAGIC_MICRO, MAGIC_NANO
    ):
        return "pcap"
    raise PcapFormatError(f"unrecognized capture magic {magic!r}")


class FrameReader:
    """Raw ``(timestamp_ns, is_ethernet, frame)`` tuples from an open
    pcap or pcapng handle — the one reader every capture path shares.

    The format is sniffed from the handle itself (never by reopening
    the path, which could name a different file by then) unless
    ``capture_format`` pins it.  Linktype policy: a pcap on an
    unsupported linktype raises :class:`PcapFormatError`; a pcapng
    frame on an unsupported interface is skipped; :attr:`ethernet` is
    a pcap's linktype (``None``: pcapng, per interface).

    Incremental like the per-format readers it drives:
    :attr:`resume_offset` is the byte offset of the first record not
    yet consumed, :meth:`skip_to` positions a fresh reader at a recorded
    one, and iteration that meets a capture ending mid-record raises
    :class:`TruncatedCapture` with the handle rewound — iterate the
    reader again once the file has grown and it picks up at that record.
    """

    def __init__(self, stream: BinaryIO,
                 capture_format: Optional[str] = None) -> None:
        self.format = capture_format or _sniff(stream)
        self.ethernet: Optional[bool] = None
        self._reader: Union[PcapReader, PcapngReader]
        if self.format == "pcapng":
            self._reader = PcapngReader(stream)
            return
        self._reader = PcapReader(stream)
        self.ethernet = _is_ethernet(self._reader.header.linktype)
        if self.ethernet is None:
            raise PcapFormatError(
                f"unsupported linktype {self._reader.header.linktype}"
            )

    @property
    def resume_offset(self) -> int:
        """Byte offset of the first record not yet fully consumed."""
        return self._reader.resume_offset

    def skip_to(self, offset: int) -> None:
        """Position the reader at a previously recorded resume offset."""
        self._reader.skip_to(offset)

    def walk(self) -> Iterator[Tuple[int, bytes, int, int]]:
        """A pcap's records in place (:meth:`PcapReader.walk`), for a
        decoder that reads frames where they lie."""
        reader = self._reader
        if not isinstance(reader, PcapReader):
            raise PcapFormatError("only a classic pcap is walked in place")
        return reader.walk()

    def __iter__(self) -> Iterator[Frame]:
        """Frames from the current position to the end of the stream."""
        ethernet = self.ethernet
        if ethernet is not None:
            for timestamp_ns, buffer, start, end in self.walk():
                yield timestamp_ns, ethernet, buffer[start:end]
            return
        for timestamp_ns, linktype, frame in self._reader:
            ethernet = _is_ethernet(linktype)
            if ethernet is not None:
                yield timestamp_ns, ethernet, frame


def sniff_format(path: PathLike) -> str:
    """Return ``"pcap"``, ``"pcapng"``, or raise for anything else."""
    with open(path, "rb") as stream:
        return _sniff(stream)


def read_any_frames(path: PathLike) -> Iterator[Frame]:
    """Yield raw ``(timestamp_ns, is_ethernet, frame)`` from either
    capture format — undecoded, for ``ingest_wire_chunk`` and the
    cluster's ``process_wire``."""
    with open(path, "rb") as stream:
        yield from FrameReader(stream)


def read_decoded(path: PathLike, decode: Callable[..., Any]) -> Iterator[Any]:
    """Yield ``decode(frame, timestamp_ns, linktype_ethernet=...)`` for
    every frame of either capture format, dropping the frames the
    decoder answers ``None`` for (TCP records: ``read_packets``)."""
    with open(path, "rb") as stream:
        for timestamp_ns, ethernet, frame in FrameReader(stream):
            record = decode(frame, timestamp_ns, linktype_ethernet=ethernet)
            if record is not None:
                yield record


def read_any_capture(path: PathLike) -> Iterator[PacketRecord]:
    """Read TCP packets from either a pcap or a pcapng file."""
    return read_packets(path)

"""Classic libpcap file reading and writing, implemented from scratch.

Supports the microsecond (0xA1B2C3D4) and nanosecond (0xA1B23C4D) magic
variants in either byte order, with the two linktypes this library emits:
Ethernet (DLT_EN10MB) and raw IP (DLT_RAW).  This replaces the paper's
tcpreplay/tcpdump tooling: synthetic traces can be written to disk as
real captures and real captures can be replayed into any monitor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Tuple, Union

from .packet import NS_PER_SEC, NS_PER_US, PacketRecord, plain_v4_tcp
from .packet import from_wire_bytes, to_wire_bytes

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

#: libpcap's MAXIMUM_SNAPLEN: no record of a valid capture is longer,
#: whatever its header claims (a header snaplen of 0 means "this").
MAX_SNAPLEN = 262144

#: Bytes :class:`PcapReader` reads at a time: its records are walked in
#: place in a buffer of about this size.
BLOCK_BYTES = 1 << 16

_GLOBAL_HEADER = struct.Struct("IHHiIII")

PathLike = Union[str, Path]


class PcapFormatError(ValueError):
    """Raised for malformed pcap files."""


class TruncatedCapture(PcapFormatError):
    """A capture ends mid-record — the file may still be growing.

    Distinct from a *malformed* capture: every byte up to
    ``resume_offset`` parsed cleanly, and the bytes after it look like
    the beginning of a valid record that has not been fully written yet
    (tcpdump flushes record-at-a-time, so an in-flight capture usually
    ends this way).  A tailing reader catches this, waits for the file
    to grow, and retries from ``resume_offset``; an offline reader
    treats it as the fatal parse error it subclasses.

    The raising reader seeks its stream back to ``resume_offset`` (when
    the stream is seekable), so calling ``next()`` again after the file
    has grown re-parses the whole record.
    """

    def __init__(self, message: str, *, resume_offset: int) -> None:
        super().__init__(f"{message} (resume offset {resume_offset})")
        self.resume_offset = resume_offset


@dataclass(frozen=True)
class PcapHeader:
    """Parsed pcap global header."""

    byte_order: str  # '<' or '>'
    nanosecond: bool
    version: Tuple[int, int]
    snaplen: int
    linktype: int


def _parse_global_header(data: bytes) -> PcapHeader:
    if len(data) < _GLOBAL_HEADER.size:
        raise PcapFormatError("pcap file shorter than global header")
    (magic,) = struct.unpack_from("<I", data, 0)
    for order in ("<", ">"):
        (m,) = struct.unpack_from(order + "I", data, 0)
        if m in (MAGIC_MICRO, MAGIC_NANO):
            magic, byte_order = m, order
            break
    else:
        raise PcapFormatError(f"bad pcap magic: {magic:#x}")
    _, major, minor, _tz, _sig, snaplen, linktype = struct.unpack_from(
        byte_order + "IHHiIII", data, 0
    )
    return PcapHeader(
        byte_order=byte_order,
        nanosecond=(magic == MAGIC_NANO),
        version=(major, minor),
        snaplen=snaplen,
        linktype=linktype,
    )


class PcapReader:
    """Iterates ``(timestamp_ns, frame_bytes)`` pairs from a pcap file.

    The reader is fully incremental: it walks its records in place in
    blocks of the stream (:meth:`walk`), tracks the byte offset of the
    next unconsumed record in :attr:`resume_offset`, and raises
    :class:`TruncatedCapture` (after seeking back to the record start)
    when the file ends mid-record — so a tailing caller can wait for
    more bytes and simply call ``next()`` again on the same reader.
    """

    GLOBAL_HEADER_BYTES = 24

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        header_bytes = stream.read(self.GLOBAL_HEADER_BYTES)
        if len(header_bytes) < self.GLOBAL_HEADER_BYTES:
            # Could be an in-flight capture whose header write has not
            # landed yet; a tailing caller waits and retries from 0.
            self._rewind(0)
            raise TruncatedCapture("partial pcap global header",
                                   resume_offset=0)
        self.header = _parse_global_header(header_bytes)
        self._rec = struct.Struct(self.header.byte_order + "IIII")
        self._frac_ns = 1 if self.header.nanosecond else NS_PER_US
        # A garbage length must fail loudly here, not turn into a huge
        # read and a TruncatedCapture that a tail would wait on forever.
        self._max_len = min(self.header.snaplen or MAX_SNAPLEN, MAX_SNAPLEN)
        self._offset = self.GLOBAL_HEADER_BYTES
        # The file's bytes from _buffer_at up to the stream position.
        self._buffer, self._buffer_at = b"", self._offset

    @property
    def resume_offset(self) -> int:
        """Byte offset of the first record not yet fully consumed."""
        return self._offset

    def skip_to(self, offset: int) -> None:
        """Position the reader at a previously recorded resume offset,
        walking the record headers up to it as pcapng replays its blocks."""
        if offset < self.GLOBAL_HEADER_BYTES:
            raise PcapFormatError(
                f"pcap resume offset {offset} is inside the global header"
            )
        self._rewind(self.GLOBAL_HEADER_BYTES)
        walk = self.walk()
        try:
            while self._offset < offset:
                next(walk)
        except (StopIteration, TruncatedCapture):
            raise PcapFormatError(f"pcap resume offset {offset} is beyond "
                                  "end of file") from None
        if self._offset != offset:
            raise PcapFormatError(f"pcap resume offset {offset} is not on a "
                                  "record boundary")

    def _rewind(self, offset: int) -> None:
        """Back the stream up so a retry re-reads from a record start."""
        self._buffer, self._buffer_at = b"", offset
        self._offset = offset
        try:
            self._stream.seek(offset)
        except (OSError, ValueError):
            pass  # non-seekable stream; retry is not possible anyway

    def walk(self) -> Iterator[Tuple[int, bytes, int, int]]:
        """``(timestamp_ns, buffer, start, end)`` per record, the frame
        being ``buffer[start:end]``.  :attr:`resume_offset` passes each
        record before it is yielded, so a fresh walk continues where an
        abandoned one (a partial ``islice``) stopped."""
        unpack, read = self._rec.unpack_from, self._stream.read
        frac_ns, max_len = self._frac_ns, self._max_len
        buffer, base = self._buffer, self._buffer_at
        pos, size = self._offset - base, len(buffer)
        while True:
            if pos + 16 <= size:
                ts_sec, ts_frac, incl_len, orig_len = unpack(buffer, pos)
                if incl_len > orig_len and orig_len != 0:
                    raise PcapFormatError(f"pcap record incl_len {incl_len} "
                                          f"exceeds orig_len {orig_len}")
                if incl_len > max_len:
                    raise PcapFormatError(f"pcap record incl_len {incl_len} "
                                          f"exceeds the capture's snaplen {max_len}")
                end = pos + 16 + incl_len
                if end <= size:
                    self._offset = base + end
                    yield (ts_sec * NS_PER_SEC + ts_frac * frac_ns, buffer,
                           pos + 16, end)
                    pos = end
                    continue
            # The next record is not all in the buffer: keep its bytes.
            more = read(BLOCK_BYTES)
            if not more:
                if pos == size:
                    return
                self._rewind(base + pos)
                raise TruncatedCapture(
                    "partial pcap record header" if pos + 16 > size
                    else "partial pcap record body",
                    resume_offset=base + pos)
            buffer, base = buffer[pos:] + more, base + pos
            pos, size = 0, len(buffer)
            self._buffer, self._buffer_at = buffer, base

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        return self

    def __next__(self) -> Tuple[int, bytes]:
        for timestamp_ns, buffer, start, end in self.walk():
            return timestamp_ns, buffer[start:end]
        raise StopIteration


class PcapWriter:
    """Writes frames to a nanosecond-resolution pcap file."""

    def __init__(
        self,
        stream: BinaryIO,
        *,
        linktype: int = LINKTYPE_ETHERNET,
        snaplen: int = 262144,
        nanosecond: bool = True,
    ):
        self._stream = stream
        self._nanosecond = nanosecond
        magic = MAGIC_NANO if nanosecond else MAGIC_MICRO
        stream.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype))

    def write(self, timestamp_ns: int, frame: bytes) -> None:
        """Append one captured frame."""
        sec, rem_ns = divmod(timestamp_ns, 1_000_000_000)
        frac = rem_ns if self._nanosecond else rem_ns // NS_PER_US
        self._stream.write(struct.pack("<IIII", sec, frac, len(frame), len(frame)))
        self._stream.write(frame)


def read_packets(path: PathLike) -> Iterator[PacketRecord]:
    """Yield TCP :class:`PacketRecord` objects from a capture file.

    Non-TCP frames are silently skipped, matching the behaviour of the
    hardware prototype (Dart only inspects TCP traffic).  A pcap record
    is parsed where the reader's walk left it; only a frame the parse
    declines is sliced for ``from_wire_bytes``, as every pcapng frame is.
    """
    # The frame reader sits above both capture formats.
    from .pcapng import FrameReader

    with open(path, "rb") as stream:
        reader = FrameReader(stream)
        ethernet = reader.ethernet
        if ethernet is None:
            for timestamp_ns, ethernet, frame in reader:
                if (record := from_wire_bytes(frame, timestamp_ns,
                                              linktype_ethernet=ethernet)):
                    yield record
            return
        parse = plain_v4_tcp
        new = tuple.__new__
        for timestamp_ns, buffer, start, end in reader.walk():
            fields = parse(buffer, start, end, ethernet)
            if fields is not None:
                yield new(PacketRecord, (timestamp_ns, *fields, False))
            elif (record := from_wire_bytes(buffer[start:end], timestamp_ns,
                                            linktype_ethernet=ethernet)):
                yield record


def write_packets(
    path: PathLike,
    records: Iterable[PacketRecord],
    *,
    nanosecond: bool = True,
) -> int:
    """Write packet records to a pcap file; returns the packet count."""
    count = 0
    with open(path, "wb") as stream:
        writer = PcapWriter(stream, nanosecond=nanosecond)
        for record in records:
            writer.write(record.timestamp_ns, to_wire_bytes(record))
            count += 1
    return count


def append_packets(path: PathLike, records: Iterable[PacketRecord]) -> int:
    """Append packet records to an existing pcap file; returns the count.

    Reads the file's global header first so appended records use the
    capture's existing timestamp resolution and byte order — this is how
    the stream tests and the CI smoke harness grow a "live" capture the
    way a flushing tcpdump would (whole records, one write each).
    """
    with open(path, "rb") as stream:
        header = _parse_global_header(stream.read(24))
    rec = struct.Struct(header.byte_order + "IIII")
    divisor = 1 if header.nanosecond else NS_PER_US
    count = 0
    with open(path, "ab") as stream:
        for record in records:
            frame = to_wire_bytes(record)
            sec, rem_ns = divmod(record.timestamp_ns, 1_000_000_000)
            stream.write(
                rec.pack(sec, rem_ns // divisor, len(frame), len(frame))
            )
            stream.write(frame)
            count += 1
    return count

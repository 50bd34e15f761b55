"""The per-packet frame budget, pinned without a clock.

A packet should cost the kernel one Python frame and one per table
operation — not a frame per helper, nor per row it builds: the PT
record, the sample and an eviction's outcome are tuples built in C
(DESIGN §7 "Frame budget").  Frames are counted with ``sys.setprofile``
over one warm pass of a small seeded trace, so the figure repeats
exactly and a call creeping back into the hot path fails here under its
own name.  The same file pins what makes the budget hold: verdict enums
hash in C and stay singletons across pickling, and record-less PT
outcomes are shared, immutable objects.
"""

import inspect
import pickle
import sys

import pytest

from repro.core import (
    Dart,
    DartConfig,
    DartStats,
    FlowKey,
    LegFilter,
    PtRecord,
)
from repro.core.packet_tracker import (
    InsertOutcome,
    InsertStatus,
    StagedPacketTable,
)
from repro.core.range_tracker import AckVerdict, SeqVerdict
from repro.net.columnar import HAVE_NUMPY
from repro.net.framing import encode_records
from repro.net.inet import InternalNetwork, ipv4_to_int
from repro.net.packet import from_wire_bytes, to_wire_bytes
from repro.net.pcap import write_packets
from repro.net.pcapng import read_any_capture, read_any_frames
from repro.traces import CampusTraceConfig, generate_campus_trace

CONFIG = DartConfig(rt_slots=1 << 16, pt_slots=1 << 12, pt_stages=1,
                    max_recirculations=1)

#: About one frame above what this trace measures: 4.23 on every entry
#: point — per packet the kernel itself, ``on_data`` (0.54) and the first
#: ``insert`` pass (0.52), ``on_ack`` (0.87), ``match_ack`` and the
#: analytics' ``add`` with its collector's (0.19 each), the ``seq_*``
#: helpers of the RT's rarer verdicts (0.37) and the recirculation chain
#: (``_insertion_loop``, ``_consider_recirculation``, ``_revalidate``,
#: ``revalidate``: 0.06 each), and a new flow's RT insert, ``RangeEntry``
#: and first hashes (0.09).  9.92 (ceiling 11.0) while the RT fetched
#: through ``lookup``, each record was a dataclass built by its
#: ``__init__`` and hashed through ``PtRecord.mix0/key_crc/key_bytes`` and
#: ``_mix32``, every tracked packet entered ``_insertion_loop`` and every
#: sample ran its own ``__init__``; the PT record, the sample and an
#: eviction's outcome are now tuples built in C, and the murmur mix is
#: written out where the PT indexes.  The kernel before the budget read
#: 21.77 and 24.50.  Columnar read 7.16 while ``process_columns`` handed
#: the kernel ten precomputed hashes per row; those hash columns took as
#: long to build (354–760 ns per packet over two sessions) as they saved
#: the kernel (469–1 020): frames are a proxy, the clock is the contract
#: (DESIGN §7, §15).
COLUMNS_CEILING = 5.3
BATCH_CEILING = 5.3

#: Under an external-leg filter over 10.0.0.0/8 the kernel reads the
#: source address itself (two frames: ``LegFilter.__call__`` and the
#: prefix set's ``__contains__``) and half the data packets skip the
#: tables: 3.54 on every entry point (5.63 before the rows above were
#: built in C).  While the filters took a whole record, a filtered
#: ``process_framed`` decoded the batch into records first and read 8.89
#: (columnar and batch 6.89).
FILTERED_COLUMNS_CEILING = 4.5
FILTERED_BATCH_CEILING = 4.5

#: ``from_wire_bytes`` on option-free IPv4/TCP frames: 2.0 per packet —
#: the function and ``plain_v4_tcp``; the record tuple is built in C.
#: 3.0 (ceiling 3.5) while ``PacketRecord`` was a dataclass with an
#: ``__init__``; the layered codec (Ethernet → IPv4 → TCP → options →
#: record, each with its dataclass ``__init__``/``__post_init__``) read
#: 14.0.
DECODE_CEILING = 2.5

#: Frames per record read from a classic pcap, file to record or frame.
#: ``read_any_capture``: 3.0 — its generator, the pcap reader's record
#: walk over the block buffer and ``plain_v4_tcp`` in place; 6.0 while
#: the reader made two ``read()`` calls per record under two generators,
#: then ``from_wire_bytes`` and the record's ``__init__``.
#: ``read_any_frames``: 3.0 before and after — its generator, the frame
#: reader's and the walk — so the walk costs the frame route nothing.
CAPTURE_CEILING = 3.5


def external_leg():
    return LegFilter(InternalNetwork([(ipv4_to_int("10.0.0.0"), 8)]),
                     legs=("external",))


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=150, seed=16)).records


@pytest.fixture(scope="module")
def capture(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "trace.pcap"
    write_packets(path, records)
    return path


def python_frames(fn) -> int:
    """Python-level calls made while ``fn`` runs (``fn`` itself included)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def frames_per_packet(entry_point: str, batch, packets: int,
                      **filters) -> float:
    # Warm: flows interned, hashed.
    getattr(Dart(CONFIG, **filters), entry_point)(batch)
    dart = Dart(CONFIG, **filters)
    frames = python_frames(lambda: getattr(dart, entry_point)(batch))
    assert dart.stats.packets_processed == packets
    assert dart.stats.samples > 0
    return frames / packets


class TestFrameBudget:
    def test_process_batch(self, records):
        per_packet = frames_per_packet("process_batch", records, len(records))
        assert per_packet <= BATCH_CEILING, per_packet

    def test_process_columns(self, records):
        pytest.importorskip("numpy")
        from repro.net.columnar import decode_wire_columns

        cols = decode_wire_columns(
            [(r.timestamp_ns, True, to_wire_bytes(r)) for r in records])
        per_packet = frames_per_packet("process_columns", cols, len(records))
        assert per_packet <= COLUMNS_CEILING, per_packet

    def test_process_framed(self, records):
        # A shard worker's route: REC_V4 records straight to kernel rows
        # costs no frame that the columnar route does not.
        payload = encode_records(records)
        per_packet = frames_per_packet("process_framed", payload, len(records))
        assert per_packet <= COLUMNS_CEILING, per_packet
        if HAVE_NUMPY:
            from repro.net.columnar import records_to_columns

            assert per_packet <= frames_per_packet(
                "process_columns", records_to_columns(records), len(records))

    def test_from_wire_bytes(self, records):
        # The object decoder reads a plain frame's header in one parse.
        frames = [(r.timestamp_ns, to_wire_bytes(r)) for r in records]
        decoded = []

        def decode():
            for ts, frame in frames:
                decoded.append(from_wire_bytes(frame, ts))

        per_packet = python_frames(decode) / len(frames)
        assert decoded == records
        assert per_packet <= DECODE_CEILING, per_packet

    def test_read_any_capture(self, records, capture):
        # A pcap record decodes where it lies in the reader's buffer.
        decoded = []
        per_record = python_frames(
            lambda: decoded.extend(read_any_capture(capture))) / len(records)
        assert decoded == records
        assert per_record <= CAPTURE_CEILING, per_record

    def test_read_any_frames(self, records, capture):
        frames = []
        per_record = python_frames(
            lambda: frames.extend(read_any_frames(capture))) / len(records)
        assert [(ts, frame) for ts, _, frame in frames] == [
            (r.timestamp_ns, to_wire_bytes(r)) for r in records]
        assert per_record <= CAPTURE_CEILING, per_record

    def test_packet_row_is_the_packet(self):
        # Nothing computed from the packet that a table could compute
        # for itself, and nothing optional: one row shape on every path.
        parameters = inspect.signature(Dart._packet).parameters
        assert tuple(parameters) == (
            "self", "ts", "role", "src", "dst", "sport", "dport", "ipv6",
            "seq", "eack", "ack")
        assert all(p.default is inspect.Parameter.empty
                   for p in parameters.values())


class TestFilteredFrameBudget:
    """A leg filter is read inside the kernel: every entry point keeps
    its own row rule, none decodes records to apply it."""

    def test_process_batch(self, records):
        per_packet = frames_per_packet("process_batch", records,
                                       len(records), leg_filter=external_leg())
        assert per_packet <= FILTERED_BATCH_CEILING, per_packet

    def test_process_columns(self, records):
        pytest.importorskip("numpy")
        from repro.net.columnar import records_to_columns

        per_packet = frames_per_packet(
            "process_columns", records_to_columns(records), len(records),
            leg_filter=external_leg())
        assert per_packet <= FILTERED_COLUMNS_CEILING, per_packet

    def test_process_framed(self, records):
        per_packet = frames_per_packet(
            "process_framed", encode_records(records), len(records),
            leg_filter=external_leg())
        assert per_packet <= FILTERED_COLUMNS_CEILING, per_packet


VERDICTS = list(SeqVerdict) + list(AckVerdict)


class TestVerdictsCostNothingToCount:
    @pytest.mark.parametrize("verdict", VERDICTS, ids=str)
    def test_hash_enters_no_python_frame(self, verdict):
        # One frame is the lambda itself; Enum.__hash__ would be a second.
        assert python_frames(lambda: hash(verdict)) == 1

    @pytest.mark.parametrize("verdict", VERDICTS, ids=str)
    def test_pickle_returns_the_same_member(self, verdict):
        assert pickle.loads(pickle.dumps(verdict)) is verdict

    def test_trackable_is_the_three_tracking_verdicts(self):
        assert {v for v in SeqVerdict if v.trackable} == {
            SeqVerdict.TRACK, SeqVerdict.TRACK_AFTER_HOLE,
            SeqVerdict.NEW_FLOW}

    def test_unpickled_stats_merge_onto_the_same_keys(self, records):
        dart = Dart(CONFIG)
        dart.process_batch(records)
        shipped = pickle.loads(pickle.dumps(dart.stats))
        assert shipped == dart.stats
        merged = DartStats().merge(dart.stats).merge(shipped)
        for name in ("seq_verdicts", "ack_verdicts"):
            mine = getattr(dart.stats, name)
            assert list(getattr(merged, name)) == list(mine)
            assert getattr(merged, name) == {
                verdict: 2 * count for verdict, count in mine.items()}


def pt_record(record_id: int, eack: int) -> PtRecord:
    flow = FlowKey(src_ip=0x0A000001, dst_ip=0x10000001, src_port=40000,
                   dst_port=443)
    return PtRecord(record_id, flow, flow.signature, eack, 0)


class TestSharedOutcomes:
    def test_record_less_outcomes_are_shared(self):
        table = StagedPacketTable(64)
        first = table.insert(pt_record(1, eack=100))
        second = table.insert(pt_record(2, eack=200))
        assert first is second
        assert first.status is InsertStatus.PLACED and first.evicted is None

    def test_outcomes_reject_attribute_assignment(self):
        placed = StagedPacketTable(4).insert(pt_record(1, eack=100))
        evicting = InsertOutcome(InsertStatus.PLACED_EVICTING,
                                 pt_record(2, eack=200))
        for outcome in (placed, evicting):
            with pytest.raises(AttributeError):
                outcome.status = InsertStatus.UNPLACED
            with pytest.raises(AttributeError):
                outcome.evicted = None

"""Entry-point equivalence: every way into ``Dart`` is ``process``.

``process``, ``process_batch``, ``process_columns`` and
``process_framed`` are classifiers around the one kernel, ``Dart._packet``, so whichever feeds a trace must
leave the monitor in the same observable state as a per-packet
``process`` loop: same stats (verdict-dict key order included), same
sample sequence, same table occupancy, same analytics windows — for
every table configuration and under either filter.  One parametrised
matrix holds that line.  The suite also pins the ``DartStats.merge``
property the cluster relies on (per-packet stat deltas merged together
equal the one-shot run), the degenerate batches, and the checkpoint
round trip: a monitor pickled mid-trace, in every table layout,
re-pickles to the same bytes and finishes like an uninterrupted one.
"""

import pickle
from dataclasses import fields
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Dart,
    DartConfig,
    DartStats,
    LegFilter,
    MinFilterAnalytics,
)
from repro.core.flow import intern_flow
from repro.core.range_tracker import AckVerdict, SeqVerdict
from repro.net.columnar import HAVE_NUMPY, KIND_RECORD, records_to_columns
from repro.net.framing import BatchEncoder, encode_records
from repro.net.inet import InternalNetwork
from repro.net.packet import to_wire_bytes
from repro.quic.packet import QuicPacketRecord
from repro.quic.wire import quic_to_wire_bytes
from repro.traces import CampusTraceConfig, generate_campus_trace

CONFIGS = {
    "ideal": DartConfig(),
    "constrained": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                              pt_stages=2, max_recirculations=2),
    "multistage+syn": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                                 pt_stages=4, max_recirculations=3,
                                 track_handshake=True),
    "shadow+delay": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                               pt_stages=2, max_recirculations=2,
                               shadow_rt=True,
                               recirculation_delay_packets=3,
                               track_handshake=True),
}

#: Odd on purpose: chunk boundaries must not matter.
CHUNK = 777

FILTERS = {
    "nofilter": {},
    # One leg only, so the filter both labels data packets and (for the
    # other direction) leaves them untracked.
    "leg": {"leg_filter": LegFilter(InternalNetwork([(0x0A000000, 8)]),
                                    legs=("external",))},
    "target": {"target_filter": lambda src, dst, sport, dport:
               80 not in (sport, dport)},
}


def chunks(records):
    return (records[i:i + CHUNK] for i in range(0, len(records), CHUNK))


def feed_process(dart, records):
    return [s for record in records for s in dart.process(record)]


def feed_batch(dart, records):
    return [s for chunk in chunks(records) for s in dart.process_batch(chunk)]


def feed_columns(dart, records):
    return [s for chunk in chunks(records)
            for s in dart.process_columns(records_to_columns(chunk))]


def feed_columns_mixed(dart, records):
    """Columns with a skip row after every seventh packet (what a
    non-TCP frame decodes to) and every fifth row forced onto the
    ``KIND_RECORD`` fallback (what IPv6 or TCP options decode to: the
    record rides along and the row's field columns hold zeros)."""
    samples = []
    for chunk in chunks(records):
        rows = []
        for i, record in enumerate(chunk):
            rows.append(record)
            if i % 7 == 0:
                rows.append(None)
        cols = records_to_columns(rows)
        for i in range(0, len(rows), 5):
            if rows[i] is not None:
                cols.kinds[i] = KIND_RECORD
                cols.records[i] = rows[i]
                for column in (cols.src_ip, cols.dst_ip, cols.src_port,
                               cols.dst_port, cols.seq, cols.ack,
                               cols.flags, cols.payload_len):
                    column[i] = 0
        samples.extend(dart.process_columns(cols))
    return samples


def feed_framed(dart, records):
    return [s for chunk in chunks(records)
            for s in dart.process_framed(encode_records(chunk))]


#: A non-TCP frame: what a framed batch carries where a decode yields
#: ``None``.
UDP_FRAME = quic_to_wire_bytes(QuicPacketRecord(
    timestamp_ns=0, src_ip=0x0A000001, dst_ip=0x0A000002, src_port=5000,
    dst_port=443, spin_bit=False, long_header=False, payload_len=30))


def framed(rows):
    """Frame records, a ``None`` as a non-TCP ``REC_WIRE`` frame."""
    encoder = BatchEncoder()
    for record in rows:
        if record is None:
            encoder.add_wire(UDP_FRAME, 0)
        else:
            encoder.add_record(record)
    return encoder.take()


def feed_framed_mixed(dart, records):
    """Framed batches as a worker receives them from ``process_wire``:
    every fifth packet travels whole as a ``REC_WIRE`` frame (what IP
    or TCP options, IPv6 or a short frame ship as) and a non-TCP frame
    follows every seventh."""
    samples = []
    for chunk in chunks(records):
        encoder = BatchEncoder()
        for i, record in enumerate(chunk):
            if i % 5 == 0:
                encoder.add_wire(to_wire_bytes(record), record.timestamp_ns)
            else:
                encoder.add_record(record)
            if i % 7 == 0:
                encoder.add_wire(UDP_FRAME, record.timestamp_ns)
        samples.extend(dart.process_framed(encoder.take()))
    return samples


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the columnar entry point requires numpy"
)
ENTRY_POINTS = {
    "process": feed_process,
    "process_batch": feed_batch,
    "process_columns": feed_columns,
    "process_columns_mixed": feed_columns_mixed,
    "process_framed": feed_framed,
    "process_framed_mixed": feed_framed_mixed,
}


@lru_cache(maxsize=None)
def trace():
    return generate_campus_trace(
        CampusTraceConfig(connections=60, seed=5)
    ).records


@lru_cache(maxsize=None)
def observed(config, entry, filt):
    """Everything observable about one finalized run, shared by the
    assertions below (``process`` runs once per config and filter).

    Each run starts with no interned flows, so every lazy hash cache
    fills exactly as it would in a fresh process instead of being found
    warmed by an earlier run over the same trace.
    """
    intern_flow.cache_clear()
    dart = Dart(CONFIGS[config],
                analytics=MinFilterAnalytics(window_samples=4),
                **FILTERS[filt])
    samples = ENTRY_POINTS[entry](dart, trace())
    dart.finalize(trace()[-1].timestamp_ns)
    return dart, samples


def case_id(config, entry, filt):
    """The default case (``process_batch``, no filter) carries the bare
    config name; the other cases name what differs."""
    parts = [config]
    if entry != "process_batch":
        parts.append(entry)
    if filt != "nofilter":
        parts.append(filt)
    return "-".join(parts)


CASES = [
    pytest.param(config, entry, filt, id=case_id(config, entry, filt),
                 marks=needs_numpy if "columns" in entry else ())
    for config in CONFIGS
    for entry in ENTRY_POINTS if entry != "process"
    for filt in FILTERS
]


@pytest.mark.parametrize("config,entry,filt", CASES)
class TestBatchEquivalence:
    """Each entry point against the per-packet ``process`` loop."""

    def test_stats_samples_and_occupancy_identical(self, config, entry, filt):
        reference, reference_samples = observed(config, "process", filt)
        candidate, samples = observed(config, entry, filt)
        assert candidate.stats == reference.stats
        assert samples == reference_samples
        assert candidate.occupancy() == reference.occupancy()
        # The filters and configs must actually bite.
        assert reference.stats.samples > 0
        assert bool(reference.stats.filtered_out) == (filt == "target")

    def test_verdict_dict_key_order_identical(self, config, entry, filt):
        # Dict equality ignores order; verdict rendering must not.
        reference, _ = observed(config, "process", filt)
        candidate, _ = observed(config, entry, filt)
        assert (list(candidate.stats.seq_verdicts)
                == list(reference.stats.seq_verdicts))
        assert (list(candidate.stats.ack_verdicts)
                == list(reference.stats.ack_verdicts))

    def test_window_histories_identical(self, config, entry, filt):
        reference, _ = observed(config, "process", filt)
        candidate, _ = observed(config, entry, filt)
        assert reference.analytics.history
        assert candidate.analytics.history == reference.analytics.history


class CountingDart(Dart):
    """The instrumentation hook: counts rows reaching the kernel."""

    seen = 0

    def _packet(self, *row):
        self.seen += 1
        return super()._packet(*row)


@pytest.mark.parametrize("entry", [
    pytest.param(entry, marks=needs_numpy if "columns" in entry else ())
    for entry in ENTRY_POINTS
])
def test_packet_override_sees_every_packet_once(entry):
    """``_packet`` is the one override point: a subclass hook runs once
    per packet — never for a skip row — whichever entry point feeds it,
    and does not change what the monitor computes."""
    records = trace()
    reference = Dart(CONFIGS["constrained"])
    reference_samples = feed_process(reference, records)
    hooked = CountingDart(CONFIGS["constrained"])
    assert ENTRY_POINTS[entry](hooked, records) == reference_samples
    assert hooked.seen == len(records)
    assert hooked.stats == reference.stats


def copy_stats(stats: DartStats) -> DartStats:
    kwargs = {f.name: getattr(stats, f.name) for f in fields(DartStats)}
    kwargs["seq_verdicts"] = dict(stats.seq_verdicts)
    kwargs["ack_verdicts"] = dict(stats.ack_verdicts)
    return DartStats(**kwargs)


def stats_delta(before: DartStats, after: DartStats) -> DartStats:
    """The per-packet increment between two stats snapshots."""
    delta = DartStats()
    for f in fields(DartStats):
        if f.name in ("seq_verdicts", "ack_verdicts"):
            prior = getattr(before, f.name)
            for verdict, count in getattr(after, f.name).items():
                step = count - prior.get(verdict, 0)
                if step:
                    getattr(delta, f.name)[verdict] = step
        else:
            setattr(delta, f.name,
                    getattr(after, f.name) - getattr(before, f.name))
    return delta


class TestMergeMatchesBatchedRun:
    """Merging N single-packet stat deltas == one N-packet batched run."""

    def test_merged_deltas_equal_batch_stats(self):
        block = trace()[:1500]
        config = CONFIGS["constrained"]
        serial = Dart(config)
        merged = DartStats()
        for record in block:
            before = copy_stats(serial.stats)
            serial.process(record)
            merged.merge(stats_delta(before, serial.stats))
        batched = Dart(config)
        batched.process_batch(block)
        assert merged == batched.stats
        # Key order: first-appearance order must survive both paths.
        assert list(merged.seq_verdicts) == list(batched.stats.seq_verdicts)
        assert list(merged.ack_verdicts) == list(batched.stats.ack_verdicts)
        # Typing: enum keys, int counts — never strings or floats.
        assert all(isinstance(k, SeqVerdict) and type(v) is int
                   for k, v in merged.seq_verdicts.items())
        assert all(isinstance(k, AckVerdict) and type(v) is int
                   for k, v in merged.ack_verdicts.items())

    @given(st.lists(st.sampled_from(list(SeqVerdict)), max_size=60),
           st.integers(min_value=1, max_value=7))
    def test_merge_is_chunking_invariant(self, verdicts, parts):
        """Summing verdicts in any partition equals one-shot counting."""
        def counted(chunk):
            counts = {}
            for verdict in chunk:
                counts[verdict] = counts.get(verdict, 0) + 1
            return DartStats(seq_verdicts=counts)

        whole = counted(verdicts)
        merged = DartStats()
        chunk = max(1, len(verdicts) // parts)
        for start in range(0, len(verdicts), chunk):
            merged.merge(counted(verdicts[start:start + chunk]))
        assert merged.seq_verdicts == whole.seq_verdicts
        assert list(merged.seq_verdicts) == list(whole.seq_verdicts)


def feed_as_columns(dart, batch):
    return dart.process_columns(records_to_columns(batch))


def feed_as_framed(dart, batch):
    return dart.process_framed(framed(batch))


#: The batch entry points, fed one whole batch at a time.
BATCH_FEEDS = [Dart.process_batch, feed_as_framed] + (
    [feed_as_columns] if HAVE_NUMPY else [])


class TestDegenerateBatches:
    def test_empty_batch_is_a_noop(self):
        for feed in BATCH_FEEDS:
            dart = Dart()
            assert feed(dart, []) == []
            assert dart.stats == DartStats()
            assert dart.occupancy() == (0, 0)

    def test_all_none_batch_is_a_noop(self):
        """Non-TCP frames decode to None; a block of them does nothing."""
        for feed in BATCH_FEEDS:
            dart = Dart()
            assert feed(dart, [None, None, None]) == []
            assert dart.stats == DartStats()

    def test_mixed_none_batch_equals_filtered_batch(self):
        block = trace()[:300]
        mixed = []
        for i, record in enumerate(block):
            mixed.append(record)
            if i % 7 == 0:
                mixed.append(None)
        for feed in BATCH_FEEDS:
            plain = Dart()
            feed(plain, block)
            tolerant = Dart()
            feed(tolerant, mixed)
            assert plain.stats == tolerant.stats
            assert plain.samples == tolerant.samples


#: Every table layout a checkpoint can hold.
LAYOUTS = {
    "rt-timeout": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                             rt_timeout_ns=50_000_000),
    "shadow-rt": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                            max_recirculations=2, shadow_rt=True),
    "pt-1-stage": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8),
    "pt-2-stages": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                              pt_stages=2, max_recirculations=2),
    "pt-4-stages": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                              pt_stages=4, max_recirculations=3),
    "recirc-delay": DartConfig(rt_slots=1 << 10, pt_slots=1 << 8,
                               pt_stages=2, max_recirculations=3,
                               recirculation_delay_packets=5),
    "ideal": DartConfig(),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_checkpoint_round_trip_is_canonical_and_resumes(layout):
    """Pickle mid-trace, unpickle, pickle again: the same bytes.  The
    restored monitor then finishes the trace exactly as an uninterrupted
    one does."""
    records = trace()
    config = LAYOUTS[layout]
    reference = Dart(config)
    reference.process_batch(records)
    reference.finalize(records[-1].timestamp_ns)

    dart = Dart(config)
    cut = len(records) // 2
    dart.process_batch(records[:cut])
    if config.recirculation_delay_packets:
        # Cut where a delayed recirculation is still in flight.
        while not dart._recirc_queue:
            dart.process(records[cut])
            cut += 1
    blob = pickle.dumps(dart)
    restored = pickle.loads(blob)
    assert pickle.dumps(restored) == blob
    assert restored.occupancy() == dart.occupancy()

    restored.process_batch(records[cut:])
    restored.finalize(records[-1].timestamp_ns)
    assert restored.stats == reference.stats
    assert restored.occupancy() == reference.occupancy()
    assert restored.samples == reference.samples
    assert reference.stats.samples > 0

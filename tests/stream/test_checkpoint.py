"""Checkpoint file format: round-trip, corruption, version fencing."""

import json
import os
import struct

import pytest

from repro.core import Dart, DartConfig
from repro.stream import (
    CheckpointCorrupt,
    CheckpointSchemaMismatch,
    read_checkpoint,
    read_header,
    write_checkpoint,
)
from repro.stream import checkpoint as checkpoint_module
from repro.stream.checkpoint import MAGIC
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture()
def checkpoint(tmp_path):
    path = tmp_path / "state.ckpt"
    payload = {"monitors": {"dart": [1, 2, 3]}, "analytics": None}
    meta = {
        "finalized": False,
        "source": {"path": "t.pcap", "format": "pcap", "offset": 1234},
        "sinks": [{"kind": "csv", "path": "out.csv", "offset": 77}],
        "runner": {"records": 10, "end_ns": 999},
    }
    write_checkpoint(path, payload, meta)
    return path


class TestRoundTrip:
    def test_payload_and_meta_survive(self, checkpoint):
        loaded = read_checkpoint(checkpoint)
        assert loaded.payload == {"monitors": {"dart": [1, 2, 3]},
                                  "analytics": None}
        assert loaded.header["source"]["offset"] == 1234
        assert loaded.header["sinks"][0]["kind"] == "csv"
        assert not loaded.finalized

    def test_header_readable_without_unpickling(self, checkpoint):
        header = read_header(checkpoint)
        assert header["runner"] == {"records": 10, "end_ns": 999}
        assert header["payload_len"] > 0
        assert len(header["payload_sha256"]) == 64

    def test_write_is_atomic(self, checkpoint, tmp_path):
        # A second write lands completely or not at all: no .tmp left.
        write_checkpoint(checkpoint, {"v": 2}, {"finalized": True})
        assert read_checkpoint(checkpoint).payload == {"v": 2}
        assert not (tmp_path / "state.ckpt.tmp").exists()

    def test_replace_mid_read_cannot_mix_two_checkpoints(
        self, checkpoint, tmp_path, monkeypatch
    ):
        # A live daemon's os.replace can land between any two reads of
        # a racing --inspect/--resume.  One handle reads one file: the
        # loader must see the old checkpoint whole (or the new one
        # whole), never the old header with the new payload.
        newer = tmp_path / "newer.ckpt"
        write_checkpoint(newer, {"monitors": {"dart": list(range(99))}},
                         {"finalized": True})
        opens = []

        def open_then_replace(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            if not opens:
                os.replace(newer, checkpoint)
            opens.append(file)
            return handle

        monkeypatch.setattr(checkpoint_module, "open", open_then_replace,
                            raising=False)
        loaded = read_checkpoint(checkpoint)
        assert loaded.payload == {"monitors": {"dart": [1, 2, 3]},
                                  "analytics": None}
        assert not loaded.finalized
        assert read_checkpoint(checkpoint).finalized  # the new one, whole


def restamp(checkpoint, schema):
    """Rewrite the checkpoint's header with another schema tag."""
    blob = checkpoint.read_bytes()
    header_len = struct.unpack(">I", blob[8:12])[0]
    header = json.loads(blob[12 : 12 + header_len])
    header["schema"] = schema
    new_header = json.dumps(header, sort_keys=True).encode()
    checkpoint.write_bytes(MAGIC + struct.pack(">I", len(new_header))
                           + new_header + blob[12 + header_len:])


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "notckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointCorrupt):
            read_header(path)

    def test_payload_bit_flip(self, checkpoint):
        blob = bytearray(checkpoint.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte; header stays intact
        checkpoint.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(checkpoint)

    def test_truncated_payload(self, checkpoint):
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[:-4])
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(checkpoint)

    def test_schema_mismatch(self, checkpoint):
        restamp(checkpoint, "dart-stream-checkpoint/999")
        with pytest.raises(CheckpointSchemaMismatch):
            read_header(checkpoint)

    def test_header_not_json(self, checkpoint):
        blob = checkpoint.read_bytes()
        header_len = struct.unpack(">I", blob[8:12])[0]
        rewritten = (
            MAGIC + struct.pack(">I", header_len)
            + b"\xff" * header_len + blob[12 + header_len:]
        )
        checkpoint.write_bytes(rewritten)
        with pytest.raises(CheckpointCorrupt):
            read_header(checkpoint)

    def test_implausible_header_length(self, tmp_path):
        path = tmp_path / "huge"
        path.write_bytes(MAGIC + struct.pack(">I", 1 << 30))
        with pytest.raises(CheckpointCorrupt):
            read_header(path)


class TestDistributionPayload:
    def test_round_trip_payload_sha256_is_stable(self, tmp_path):
        # The distribution stage's pickle must be canonical: re-writing
        # a read-back checkpoint yields the same payload digest, even
        # when the stage was read mid-run.  Resumed daemons checkpoint
        # the restored state — a history-dependent pickle would make
        # their digests drift.
        from repro.core.flow import FlowKey
        from repro.core.hist import DistributionAnalytics, HistogramSpec
        from repro.core.samples import RttSample

        dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                     quantiles=(50.0, 99.0))
        for i in range(200):
            flow = FlowKey(src_ip=0x0A000001, dst_ip=0x10000005 + i % 5,
                           src_port=1, dst_port=443)
            dist.add(RttSample(flow=flow, rtt_ns=(i % 37 + 1) * 1_000_000,
                               timestamp_ns=i, eack=0))
            if i == 77:
                _ = dist.percentiles()  # a mid-run read

        first = tmp_path / "first.ckpt"
        write_checkpoint(first, {"analytics": dist}, {"finalized": False})
        loaded = read_checkpoint(first)
        second = tmp_path / "second.ckpt"
        write_checkpoint(second, loaded.payload, {"finalized": False})
        assert (read_header(first)["payload_sha256"]
                == read_header(second)["payload_sha256"])


#: The deployed table sizing (2^18 RT slots, 2^14 PT slots).
CAMPUS = dict(rt_slots=1 << 18, pt_slots=1 << 14, pt_stages=1,
              max_recirculations=1)


def payload_len(tmp_path, payload):
    path = tmp_path / "sized.ckpt"
    return write_checkpoint(path, payload, {"finalized": False})["payload_len"]


def index_bytes(dart):
    """Pickled bytes of the slot indices in ``dart``'s table rows.  An
    int pickles in 1, 2 or 4 bytes by its value, the one way a row can
    depend on the size of its table."""
    _, (_, _, rt_rows) = dart.range_tracker._table.__reduce__()
    _, (_, _, _, pt_rows) = dart.packet_tracker.__reduce__()
    # An RT row is the slot's registers and timeout stamp, nothing else.
    indices = [index for index, _sig, _left, _right, _touched in rt_rows]
    indices += [row[1] for row in pt_rows]
    return sum(1 if i < 1 << 8 else 2 if i < 1 << 16 else 4 for i in indices)


class TestTableEncoding:
    """Hashed tables pickle their live entries as rows, nothing else."""

    def test_bytes_track_occupancy_not_table_size(self, tmp_path):
        records = generate_campus_trace(
            CampusTraceConfig(connections=30, seed=7)).records
        records = records[:len(records) // 2]

        def fed(**sizes):
            dart = Dart(DartConfig(**{**CAMPUS, **sizes}))
            dart.process_batch(records)
            return dart

        base = fed()
        assert base.occupancy()[0] and base.occupancy()[1]
        for doubled in (fed(rt_slots=1 << 19), fed(pt_slots=1 << 15)):
            # Too few records for a collision in either table: the
            # doubled one holds exactly the same entries.
            assert doubled.occupancy() == base.occupancy()
            assert (payload_len(tmp_path, doubled) - index_bytes(doubled)
                    == payload_len(tmp_path, base) - index_bytes(base))

    def test_empty_deployed_monitor_is_small(self, tmp_path):
        # 2^18 empty RT slots pickled as ~281 KB while each one was
        # written out; now there are no rows to write.
        assert payload_len(tmp_path, Dart(DartConfig(**CAMPUS))) < 4096


class Forged:
    """Pickles as a table rebuild call with hand-made arguments."""

    def __init__(self, rebuild, args):
        self.reduced = (rebuild, args)

    def __reduce__(self):
        return self.reduced


def constrained_tables():
    dart = Dart(DartConfig(rt_slots=1 << 10, pt_slots=1 << 8, pt_stages=2))
    dart.process_batch(generate_campus_trace(
        CampusTraceConfig(connections=20, seed=7)).records[:150])
    return dart.range_tracker._table, dart.packet_tracker


def forge_rt(fault):
    table, _ = constrained_tables()
    rebuild, (size, overwrite, rows) = table.__reduce__()
    assert len(rows) >= 2
    first = rows[0]
    rows = {
        "none": rows,
        "index-at-size": [(size,) + first[1:]] + rows[1:],
        "negative-index": [(-1,) + first[1:]] + rows[1:],
        "duplicate-index": [first, first] + rows[1:],
    }[fault]
    return Forged(rebuild, (size, overwrite, rows))


def forge_pt(fault):
    _, table = constrained_tables()
    rebuild, (stages, stage_slots, flows, rows) = table.__reduce__()
    assert len(rows) >= 2
    first = rows[0]
    rows = {
        "none": rows,
        "index-at-size": [first[:1] + (stage_slots,) + first[2:]] + rows[1:],
        "negative-index": [first[:1] + (-1,) + first[2:]] + rows[1:],
        "duplicate-index": [first, first] + rows[1:],
        "stage-at-stages": rows + [(stages,) + first[1:]],
        "flow-out-of-range": [first[:3] + (len(flows),) + first[4:]]
        + rows[1:],
    }[fault]
    return Forged(rebuild, (stages, stage_slots, flows, rows))


class TestForgedRows:
    """A row naming a slot the table does not have, or a slot twice, or
    a flow the checkpoint does not list, is refused on load."""

    def write(self, tmp_path, table):
        path = tmp_path / "forged.ckpt"
        write_checkpoint(path, {"table": table}, {"finalized": False})
        return path

    def test_unforged_rows_load(self, tmp_path):
        loaded = read_checkpoint(self.write(tmp_path, forge_rt("none")))
        assert loaded.payload["table"].occupancy() > 1
        loaded = read_checkpoint(self.write(tmp_path, forge_pt("none")))
        assert loaded.payload["table"].occupancy() > 1

    @pytest.mark.parametrize("fault", ["index-at-size", "negative-index",
                                       "duplicate-index"])
    def test_bad_rt_row_is_corrupt(self, tmp_path, fault):
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(self.write(tmp_path, forge_rt(fault)))

    @pytest.mark.parametrize("fault", ["index-at-size", "negative-index",
                                       "duplicate-index", "stage-at-stages",
                                       "flow-out-of-range"])
    def test_bad_pt_row_is_corrupt(self, tmp_path, fault):
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(self.write(tmp_path, forge_pt(fault)))

    def test_schema_1_is_refused(self, checkpoint):
        # Object-graph tables (schema /1) are not migrated to rows.
        restamp(checkpoint, "dart-stream-checkpoint/1")
        with pytest.raises(CheckpointSchemaMismatch):
            read_checkpoint(checkpoint)

    def test_schema_2_is_refused(self, checkpoint):
        # Distribution stages pickled as histogram/sketch objects
        # (schema /2) are not migrated to registers.
        restamp(checkpoint, "dart-stream-checkpoint/2")
        with pytest.raises(CheckpointSchemaMismatch):
            read_checkpoint(checkpoint)

    def test_schema_3_is_refused(self, checkpoint):
        # RT rows with a per-entry collapse count and a PT carrying its
        # own stats (schema /3) are not migrated.
        restamp(checkpoint, "dart-stream-checkpoint/3")
        with pytest.raises(CheckpointSchemaMismatch):
            read_checkpoint(checkpoint)

    def test_schema_4_is_refused(self, checkpoint):
        # Leg filters pickled as a prefix-and-length filter over whole
        # packet records (schema /4) are not migrated to ``LegFilter``.
        restamp(checkpoint, "dart-stream-checkpoint/4")
        with pytest.raises(CheckpointSchemaMismatch):
            read_checkpoint(checkpoint)

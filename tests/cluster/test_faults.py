"""Worker fault handling: crashes and hangs surface as ShardFailure.

The coordinator must never deadlock on a dead or wedged worker — every
failure mode ends in a :class:`ShardFailure` naming the shard, within
the join timeout, with whatever partial results could be recovered.
The worker's side of that contract (``_worker_main``) is also driven
here in the test's own process, where a coverage tracer can see it.
"""

import multiprocessing
import os
import queue
import time
from functools import partial
from multiprocessing import shared_memory
from multiprocessing.process import BaseProcess

import pytest

from repro.cluster import (
    InlineWorker,
    ShardFailure,
    ShardedDart,
    ShmRingTransport,
    shard_of,
)
from repro.cluster import worker as worker_mod
from repro.cluster.worker import _worker_main
from repro.core import Dart, MinFilterAnalytics, ideal_config
from repro.net.framing import encode_records
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def records():
    return generate_campus_trace(
        CampusTraceConfig(connections=60, seed=5)
    ).records


class CrashingDart(Dart):
    """Raises after processing ``crash_after`` packets."""

    def __init__(self, crash_after: int) -> None:
        super().__init__(ideal_config())
        self._crash_after = crash_after

    def _packet(self, *row):
        if self.stats.packets_processed >= self._crash_after:
            raise RuntimeError("injected crash")
        return super()._packet(*row)


class ExitingDart(Dart):
    """Kills its process outright — no exception, no error report."""

    def __init__(self) -> None:
        super().__init__(ideal_config())

    def _packet(self, *row):
        os._exit(3)


class HangingDart(Dart):
    """Finalizes forever (models a wedged worker at shutdown)."""

    def __init__(self) -> None:
        super().__init__(ideal_config())

    def finalize(self, at_ns=None):
        time.sleep(60)


@pytest.mark.parametrize("parallel", ["serial", "process"])
class TestCrashedWorker:
    def test_crash_surfaces_shard_failure(self, records, parallel):
        cluster = ShardedDart(
            shards=4, parallel=parallel, batch_size=64, join_timeout=10.0,
            monitor_factory=lambda: CrashingDart(crash_after=50),
        )
        with pytest.raises(ShardFailure) as excinfo:
            cluster.process_trace(records)
            cluster.finalize()
        failure = excinfo.value
        assert 0 <= failure.shard_id < 4
        assert "injected crash" in failure.reason

    def test_partial_stats_surfaced(self, records, parallel):
        cluster = ShardedDart(
            shards=2, parallel=parallel, batch_size=64, join_timeout=10.0,
            monitor_factory=lambda: CrashingDart(crash_after=50),
        )
        with pytest.raises(ShardFailure) as excinfo:
            cluster.process_trace(records)
            cluster.finalize()
        failure = excinfo.value
        partial = failure.partial.get(failure.shard_id)
        assert partial is not None
        assert partial.partial
        # The worker got through exactly its crash budget.
        assert partial.stats.packets_processed == 50

    def test_no_deadlock_when_queue_backs_up(self, records, parallel,
                                             monkeypatch):
        """A dead worker behind a full ring fails fast, never blocks."""
        # A 2 KiB ring holds three 16-record batches; each shard is
        # sent hundreds, so the producer is waiting for space that a
        # dead consumer will never free.
        monkeypatch.setattr(worker_mod, "ShmRingTransport",
                            partial(ShmRingTransport, capacity=2048))
        cluster = ShardedDart(
            shards=2, parallel=parallel, batch_size=16, join_timeout=10.0,
            monitor_factory=lambda: CrashingDart(crash_after=0),
        )
        start = time.monotonic()
        with pytest.raises(ShardFailure):
            cluster.process_trace(records)
            cluster.finalize()
        assert time.monotonic() - start < 30.0

    def test_a_failed_cluster_stays_failed(self, records, parallel):
        """Every later finalize, read or packet re-raises the first
        failure: nothing re-flushes, re-joins or merges what was left."""
        cluster = ShardedDart(
            shards=2, parallel=parallel, batch_size=64, join_timeout=10.0,
            monitor_factory=lambda: CrashingDart(crash_after=50),
        )
        with pytest.raises(ShardFailure) as excinfo:
            cluster.process_trace(records)
            cluster.finalize()
        failure = excinfo.value
        assert failure.partial[failure.shard_id].partial
        for again in (
            cluster.finalize,
            lambda: cluster.stats,
            lambda: cluster.samples,
            lambda: cluster.window_history,
            lambda: cluster.distribution,
            lambda: cluster.shard_results,
            lambda: cluster.process_trace(records[:1]),
        ):
            with pytest.raises(ShardFailure) as reraised:
                again()
            assert reraised.value is failure


class TestHardCrash:
    def test_killed_process_reports_exitcode(self, records):
        cluster = ShardedDart(
            shards=2, parallel="process", batch_size=32, join_timeout=10.0,
            monitor_factory=ExitingDart,
        )
        with pytest.raises(ShardFailure) as excinfo:
            cluster.process_trace(records)
            cluster.finalize()
        assert "died" in str(excinfo.value)
        assert 0 <= excinfo.value.shard_id < 2


class TestHungWorker:
    def test_join_timeout_fires(self, records):
        cluster = ShardedDart(
            shards=2, parallel="process", join_timeout=2.0,
            monitor_factory=HangingDart,
        )
        cluster.process_trace(records[:500])
        start = time.monotonic()
        with pytest.raises(ShardFailure) as excinfo:
            cluster.finalize()
        elapsed = time.monotonic() - start
        assert "join timeout" in excinfo.value.reason
        assert elapsed < 15.0  # bounded by the timeout, not a hang

    def test_completed_shards_attached_to_failure(self, records):
        # Shard-dependent factory: only one shard's flows hang.  The
        # factory runs in the worker, which knows its shard by name.
        first_record = records[0]
        hang_shard = shard_of(first_record, 2)

        def factory():
            name = multiprocessing.current_process().name
            return HangingDart() if name == f"dart-shard-{hang_shard}" \
                else Dart(ideal_config())

        cluster = ShardedDart(shards=2, parallel="process",
                              join_timeout=1.0, monitor_factory=factory)
        cluster.process_trace(records[:2000])
        with pytest.raises(ShardFailure) as excinfo:
            cluster.finalize()
        failure = excinfo.value
        # The healthy shard's finished result rides along when it
        # completed before the failure was detected.
        for shard_id, result in failure.partial.items():
            assert result.stats.packets_processed > 0


class TestWorkerStartFailure:
    def test_earlier_workers_are_aborted(self, monkeypatch):
        """The second shard's ring cannot be allocated: the constructor
        raises that error and leaves neither the first shard's process
        nor its segment behind."""
        created = []

        def second_creation_fails(*args, **kwargs):
            if kwargs.get("create") and created:
                raise OSError(28, "No space left on device")
            segment = real(*args, **kwargs)
            created.append(segment.name)
            return segment

        real = shared_memory.SharedMemory
        monkeypatch.setattr(shared_memory, "SharedMemory",
                            second_creation_fails)
        with pytest.raises(OSError, match="No space left"):
            ShardedDart(ideal_config(), shards=2, parallel="process")
        assert not [child.name for child in multiprocessing.active_children()
                    if child.name.startswith("dart-shard-")]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0])

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="POSIX shared memory is not under /dev/shm")
    def test_a_process_that_cannot_start_frees_its_ring(self, monkeypatch):
        """The first shard's ring is allocated, then its process cannot
        start: the half-built worker is in no worker list, so it must
        free the ring itself before the error propagates."""
        def segments():
            return {name for name in os.listdir("/dev/shm")
                    if name.startswith("psm_")}

        def cannot_start(process):
            raise OSError(11, "Resource temporarily unavailable")

        before = segments()
        monkeypatch.setattr(BaseProcess, "start", cannot_start)
        with pytest.raises(OSError, match="Resource temporarily"):
            ShardedDart(ideal_config(), shards=2, parallel="process")
        assert not [child.name for child in multiprocessing.active_children()
                    if child.name.startswith("dart-shard-")]
        assert segments() - before == set()


def plain_dart():
    return Dart(ideal_config())


def windowed_dart():
    return Dart(ideal_config(),
                analytics=MinFilterAnalytics(window_samples=4))


@pytest.fixture
def loaded_ring(records):
    """A default-capacity ring holding the trace as two framed batches."""
    ring = ShmRingTransport(multiprocessing.get_context())
    name = ring._shm_name
    half = len(records) // 2
    ring.send_batch(encode_records(records[:half]))
    ring.send_batch(encode_records(records[half:]))
    yield ring
    # _worker_main closes its mapping on the way out — here the
    # owner's own, so destroy() has nothing left to unlink through.
    segment = shared_memory.SharedMemory(name=name)
    segment.close()
    segment.unlink()


@pytest.mark.parametrize("fastpath", [True, False])
class TestWorkerLoopInProcess:
    @pytest.mark.parametrize("factory", [plain_dart, windowed_dart])
    def test_finish_posts_the_inline_harvest(self, records, loaded_ring,
                                             fastpath, factory):
        end_ns = records[-1].timestamp_ns + 1_000_000
        loaded_ring.send_finish(end_ns)
        reports = queue.Queue()
        _worker_main(0, factory, loaded_ring, reports, fastpath)
        status, shipped = reports.get_nowait()
        inline = InlineWorker(0, factory, fastpath=fastpath)
        inline.submit_bytes(encode_records(records))
        reference = inline.finish(end_ns=end_ns)
        assert status == "ok" and not shipped.partial
        assert shipped.packets == reference.packets == len(records)
        assert shipped.stats == reference.stats
        assert shipped.samples == reference.samples
        assert shipped.window_history == reference.window_history
        # Plain Dart retains samples, the windowed one only its windows.
        assert shipped.samples or shipped.window_history

    def test_crash_posts_the_partial_and_exits_1(self, loaded_ring,
                                                 fastpath):
        loaded_ring.send_finish(None)
        reports = queue.Queue()
        with pytest.raises(SystemExit) as excinfo:
            _worker_main(0, lambda: CrashingDart(crash_after=100),
                         loaded_ring, reports, fastpath)
        assert excinfo.value.code == 1
        status, reason, partial = reports.get_nowait()
        assert status == "error" and "injected crash" in reason
        assert partial.partial
        assert partial.stats.packets_processed == 100

    def test_stop_returns_without_posting(self, loaded_ring, fastpath):
        loaded_ring.send_stop()
        reports = queue.Queue()
        _worker_main(0, plain_dart, loaded_ring, reports, fastpath)
        assert reports.empty()

"""Worker fault handling: crashes and hangs surface as ShardFailure.

The coordinator must never deadlock on a dead or wedged worker — every
failure mode ends in a :class:`ShardFailure` naming the shard, within
the join timeout, with whatever partial results could be recovered.
"""

import os
import time

import pytest

from repro.cluster import ShardFailure, ShardedDart, shard_of
from repro.core import Dart, ideal_config
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


@pytest.mark.parametrize("parallel", ["thread", "process"])
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

    def test_no_deadlock_when_queue_backs_up(self, records, parallel):
        """A dead worker behind a full queue fails fast, never blocks."""
        cluster = ShardedDart(
            shards=2, parallel=parallel, batch_size=16, queue_depth=1,
            join_timeout=10.0,
            monitor_factory=lambda: CrashingDart(crash_after=0),
        )
        start = time.monotonic()
        with pytest.raises(ShardFailure):
            cluster.process_trace(records)
            cluster.finalize()
        assert time.monotonic() - start < 30.0


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
        # Shard-dependent factory: only shard 0's flows hang.  Build via
        # a mutable cell so each worker constructs its own Dart.
        first_record = records[0]
        hang_shard = shard_of(first_record, 2)
        counter = iter(range(2))

        def factory():
            shard = next(counter)
            return HangingDart() if shard == hang_shard else Dart(
                ideal_config()
            )

        cluster = ShardedDart(shards=2, parallel="thread",
                              join_timeout=1.0, monitor_factory=factory)
        cluster.process_trace(records[:2000])
        with pytest.raises(ShardFailure) as excinfo:
            cluster.finalize()
        failure = excinfo.value
        # The healthy shard's finished result rides along when it
        # completed before the failure was detected.
        for shard_id, result in failure.partial.items():
            assert result.stats.packets_processed > 0

"""The RttMonitor structural check and the monitor registry."""

import pytest

from repro.baselines import TcpTrace
from repro.cluster import ShardedDart
from repro.core import Dart, DartConfig
from repro.engine import (
    MonitorOptions,
    MonitorSpec,
    available,
    conforms_to_monitor,
    create,
    get_spec,
    monitor_factory,
    register,
)
from repro.engine.registry import _REGISTRY
from repro.quic.monitor import SpinBitMonitor

BUILTIN = ("dapper", "dart", "spinbit", "strawman", "tcptrace")


class TestConformsToMonitor:
    @pytest.mark.parametrize("name", BUILTIN)
    def test_every_registered_monitor_conforms(self, name):
        assert conforms_to_monitor(create(name))

    @pytest.mark.parametrize("bad", [object(), [], 42, "dart", None])
    def test_non_monitors_rejected(self, bad):
        assert not conforms_to_monitor(bad)

    def test_partial_surface_rejected(self):
        class NoFinalize:
            stats = None
            samples = ()

            def process(self, record):
                return []

            def process_batch(self, records):
                return []

        assert not conforms_to_monitor(NoFinalize())

    def test_check_does_not_invoke_properties(self):
        # ShardedDart.stats is a property whose getter finalizes the
        # cluster; the conformance check must accept it *without*
        # triggering that (a hasattr-based check would).
        cluster = ShardedDart(DartConfig(), shards=2, parallel="serial")
        assert conforms_to_monitor(cluster)
        assert cluster._merged is None  # still un-finalized
        cluster.process_batch([])
        cluster.finalize()

    def test_slots_only_monitor_conforms(self):
        # A monitor with __slots__ has no instance __dict__; the data
        # members are class-level slot descriptors and must be accepted
        # without being read.
        class SlotsMonitor:
            __slots__ = ("stats", "samples")

            def __init__(self):
                self.stats = None
                self.samples = []

            def process(self, record):
                return []

            def process_batch(self, records):
                return []

            def finalize(self, at_ns=None):
                pass

        assert conforms_to_monitor(SlotsMonitor())


class TestRegistry:
    def test_builtins_available(self):
        assert available() == BUILTIN  # sorted tuple

    def test_get_spec_unknown_name(self):
        with pytest.raises(KeyError, match="unknown monitor"):
            get_spec("nope")

    def test_record_kinds(self):
        assert get_spec("spinbit").record_kind == "quic"
        for name in ("dart", "tcptrace", "strawman", "dapper"):
            assert get_spec(name).record_kind == "tcp"

    def test_register_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="record kind"):
            register(MonitorSpec(name="x", factory=lambda o: None,
                                 record_kind="udp"))

    def test_create_types(self):
        assert isinstance(create("dart"), Dart)
        assert isinstance(create("tcptrace"), TcpTrace)
        assert isinstance(create("spinbit"), SpinBitMonitor)

    def test_create_rejects_non_conforming_factory(self):
        register(MonitorSpec(name="_broken", factory=lambda o: object(),
                             record_kind="tcp"))
        try:
            with pytest.raises(TypeError, match="RttMonitor"):
                create("_broken")
        finally:
            del _REGISTRY["_broken"]

    def test_options_reach_the_monitor(self):
        config = DartConfig(rt_slots=1 << 6, pt_slots=1 << 5)
        dart = create("dart", MonitorOptions(config=config))
        assert dart.config is config
        trace = create("tcptrace", MonitorOptions(track_handshake=True))
        assert trace._track_handshake is True
        assert create("tcptrace")._track_handshake is False

    def test_factory_builds_fresh_instances(self):
        build = monitor_factory("tcptrace")
        first, second = build(), build()
        assert first is not second
        assert isinstance(first, TcpTrace)

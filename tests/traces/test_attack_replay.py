"""Tests for the attack trace generator and for replaying it through
the engine."""

from collections import Counter

import pytest

from repro.core import Dart, ideal_config, make_leg_filter
from repro.engine import MonitorEngine
from repro.net.pcap import write_packets
from repro.net.pcapng import read_any_frames
from repro.traces import AttackTraceConfig, generate_attack_trace

MS = 1_000_000
SEC = 1_000_000_000


@pytest.fixture(scope="module")
def attack_trace():
    return generate_attack_trace(AttackTraceConfig(duration_ns=60 * SEC,
                                                   attack_at_ns=30 * SEC))


class TestAttackTrace:
    def test_deterministic(self):
        config = AttackTraceConfig(duration_ns=10 * SEC, attack_at_ns=5 * SEC)
        assert (generate_attack_trace(config).records
                == generate_attack_trace(config).records)

    def test_rtt_steps_at_attack_time(self, attack_trace):
        config = attack_trace.config
        leg = make_leg_filter(attack_trace.internal.is_internal,
                              legs=("external",))
        dart = Dart(ideal_config(), leg_filter=leg)
        for record in attack_trace.records:
            dart.process(record)
        pre = [s.rtt_ns for s in dart.samples
               if s.timestamp_ns < config.attack_at_ns]
        post = [s.rtt_ns for s in dart.samples
                if s.timestamp_ns > config.attack_at_ns + 2 * SEC]
        assert pre and post
        pre_med = sorted(pre)[len(pre) // 2]
        post_med = sorted(post)[len(post) // 2]
        # External-leg RTT excludes the internal leg: ~22 ms -> ~117 ms.
        assert 15 * MS <= pre_med <= 30 * MS
        assert 100 * MS <= post_med <= 135 * MS
        assert post_med > 3 * pre_med

    def test_continuous_sampling(self, attack_trace):
        # The chatty session produces samples throughout the run.
        leg = make_leg_filter(attack_trace.internal.is_internal,
                              legs=("external",))
        dart = Dart(ideal_config(), leg_filter=leg)
        for record in attack_trace.records:
            dart.process(record)
        stamps = [s.timestamp_ns for s in dart.samples]
        assert max(stamps) - min(stamps) > 50 * SEC
        assert len(stamps) > 300

    def test_external_delay_profile(self):
        config = AttackTraceConfig()
        before = config.external_one_way_ns(0)
        after = config.external_one_way_ns(config.attack_at_ns)
        assert after > before
        assert 2 * (before + config.internal_one_way_ns) == (
            config.pre_attack_rtt_ns
        )

    def test_packets_after_attack(self, attack_trace):
        count = attack_trace.packets_after_attack()
        assert 0 < count < attack_trace.packets


class TestReplay:
    def test_replay_feeds_all_monitors(self, attack_trace):
        d1 = Dart(ideal_config())
        d2 = Dart(ideal_config())
        engine = MonitorEngine()
        engine.add_monitor(d1, name="d1")
        engine.add_monitor(d2, name="d2")
        report = engine.run(attack_trace.records)
        assert report.records == attack_trace.packets
        assert d1.stats.packets_processed == attack_trace.packets
        assert d1.stats == d2.stats
        assert d1.samples == d2.samples
        assert report.records_per_second > 0

    def test_replay_pcap_roundtrip(self, attack_trace, tmp_path):
        path = tmp_path / "attack.pcap"
        write_packets(path, attack_trace.records[:500])
        dart = Dart(ideal_config())
        engine = MonitorEngine()
        engine.add_monitor(dart)
        report = engine.run_frames(read_any_frames(path))
        assert report.records == 500
        assert dart.stats.packets_processed == 500
        direct = Dart(ideal_config())
        direct.process_batch(attack_trace.records[:500])
        assert dart.samples == direct.samples

    def test_split_by_leg_partitions(self, attack_trace):
        # A trace splits by data direction through the leg filter: the
        # two one-leg monitors share out the two-leg monitor's samples.
        legs = (("external",), ("internal",), ("external", "internal"))
        engine = MonitorEngine()
        external, internal, both = monitors = [
            Dart(ideal_config(), leg_filter=make_leg_filter(
                attack_trace.internal.is_internal, legs=leg))
            for leg in legs
        ]
        for leg, monitor in zip(legs, monitors):
            engine.add_monitor(monitor, name="+".join(leg))
        engine.run(attack_trace.records)
        assert {s.leg for s in external.samples} == {"external"}
        assert {s.leg for s in internal.samples} == {"internal"}
        assert (Counter(external.samples) + Counter(internal.samples)
                == Counter(both.samples))

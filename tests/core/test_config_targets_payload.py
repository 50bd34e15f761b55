"""Tests for DartConfig, target-flow rules, payload table, and samples."""

import pytest

from repro.core.config import DartConfig, ideal_config, paper_default_config
from repro.core.payload import (
    PayloadSizeTable,
    arithmetic_payload_size,
)
from repro.core.samples import (
    RttSample,
    SampleCollector,
)
from repro.core.flow import FlowKey
from repro.core.targets import TargetFlowTable, TargetRule
from repro.net.inet import ipv4_to_int


class TestDartConfig:
    def test_ideal_detection(self):
        assert ideal_config().ideal
        assert not paper_default_config().ideal

    def test_paper_default_values(self):
        config = paper_default_config()
        assert config.pt_slots == 1 << 17
        assert config.pt_stages == 1
        assert config.max_recirculations == 1
        assert not config.track_handshake

    def test_stage_slots(self):
        assert DartConfig(pt_slots=128, pt_stages=4).pt_stage_slots == 32
        assert DartConfig().pt_stage_slots is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rt_slots=0),
            dict(pt_slots=0),
            dict(pt_stages=0),
            dict(pt_stages=99),
            dict(pt_slots=2, pt_stages=4),
            dict(max_recirculations=-1),
            dict(recirculation_delay_packets=-5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DartConfig(**kwargs)


def packet(src="10.0.0.1", dst="16.1.2.3", sport=40000, dport=443):
    """A packet's ``(src_ip, dst_ip, src_port, dst_port)``: what a
    target rule reads."""
    return ipv4_to_int(src), ipv4_to_int(dst), sport, dport


class TestTargetRules:
    def test_empty_table_matches_all(self):
        assert TargetFlowTable().matches(*packet())

    def test_prefix_rule(self):
        rule = TargetRule(dst_prefix=(ipv4_to_int("16.1.2.0"), 24))
        assert rule.matches(*packet())
        assert not rule.matches(*packet(dst="16.9.9.9"))

    def test_rule_matches_reverse_direction(self):
        rule = TargetRule(dst_prefix=(ipv4_to_int("16.1.2.0"), 24))
        reverse = packet(src="16.1.2.3", dst="10.0.0.1", sport=443,
                         dport=40000)
        assert rule.matches(*reverse)

    def test_port_range_rule(self):
        rule = TargetRule(dst_ports=(440, 450))
        assert rule.matches(*packet(dport=443))
        assert not rule.matches(*packet(dport=80))

    def test_combined_fields_all_must_match(self):
        rule = TargetRule(
            src_prefix=(ipv4_to_int("10.0.0.0"), 8),
            dst_ports=(443, 443),
        )
        assert rule.matches(*packet())
        assert not rule.matches(*packet(dport=80))

    def test_rejects_bad_port_range(self):
        with pytest.raises(ValueError):
            TargetRule(src_ports=(10, 5))
        with pytest.raises(ValueError):
            TargetRule(dst_ports=(0, 70000))

    def test_rejects_bad_prefix(self):
        with pytest.raises(ValueError):
            TargetRule(src_prefix=(0, 40))

    def test_install_and_remove(self):
        table = TargetFlowTable()
        rule = TargetRule(dst_ports=(80, 80))
        table.add(rule)
        assert len(table) == 1
        assert not table.matches(*packet(dport=443))
        assert table.remove(rule)
        assert not table.remove(rule)
        assert table.matches(*packet(dport=443))  # empty again -> match all


class TestPayloadTable:
    def test_common_case_hits(self):
        table = PayloadSizeTable()
        assert table.lookup(60, 5, 5) == 20
        assert table.stats.hits == 1
        assert table.stats.fallbacks == 0

    def test_uncommon_ihl_falls_back(self):
        table = PayloadSizeTable()
        assert table.lookup(64, 6, 5) == 64 - 24 - 20
        assert table.stats.fallbacks == 1

    def test_oversize_total_length_falls_back(self):
        table = PayloadSizeTable()
        assert table.lookup(9000, 5, 5) == 9000 - 40
        assert table.stats.fallbacks == 1

    def test_covers(self):
        table = PayloadSizeTable()
        assert table.covers(1480, 5, 15)
        assert not table.covers(1481, 5, 5)
        assert not table.covers(100, 6, 5)

    def test_matches_arithmetic_everywhere(self):
        table = PayloadSizeTable()
        for total in (40, 100, 577, 1480):
            for offset in (5, 8, 15):
                if total - 20 - 4 * offset < 0:
                    continue
                assert table.lookup(total, 5, offset) == (
                    arithmetic_payload_size(total, 5, offset)
                )

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_payload_size(40, 5, 15)  # 40 - 20 - 60 < 0

    def test_table_has_no_negative_entries(self):
        table = PayloadSizeTable()
        assert table.lookup(40, 5, 5) == 0
        assert not table.covers(41, 5, 15)  # would be negative


class TestSinks:
    def make_sample(self, rtt_ns=1000):
        flow = FlowKey(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        return RttSample(flow=flow, rtt_ns=rtt_ns, timestamp_ns=0, eack=0)

    def test_collector(self):
        collector = SampleCollector()
        collector.add(self.make_sample(5_000_000))
        assert collector.rtts_ms() == [5.0]
        assert len(collector) == 1
        collector.clear()
        assert len(collector) == 0

    def test_collector_for_flow(self):
        collector = SampleCollector()
        s = self.make_sample()
        collector.add(s)
        assert collector.for_flow(s.flow) == [s]
        other = FlowKey(src_ip=9, dst_ip=9, src_port=9, dst_port=9)
        assert collector.for_flow(other) == []

    def test_rtt_ms_property(self):
        assert self.make_sample(2_500_000).rtt_ms == 2.5

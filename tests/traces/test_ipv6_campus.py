"""Dual-stack campus traces (paper §7: IPv6 support)."""

import pytest

from repro.core import Dart, LegFilter, ideal_config
from repro.traces import CampusTraceConfig, generate_campus_trace
from repro.traces.campus import SERVER_NET6, WIRED_NET6, WIRELESS_NET6


@pytest.fixture(scope="module")
def dual_stack_trace():
    return generate_campus_trace(
        CampusTraceConfig(connections=200, seed=42, ipv6_fraction=0.4)
    )


class TestDualStackTrace:
    def test_both_families_present(self, dual_stack_trace):
        v6 = [r for r in dual_stack_trace.records if r.ipv6]
        v4 = [r for r in dual_stack_trace.records if not r.ipv6]
        assert v6 and v4

    def test_v6_addresses_in_plan(self, dual_stack_trace):
        for record in dual_stack_trace.records:
            if not record.ipv6:
                continue
            internal = (record.src_ip
                        if record.src_ip in dual_stack_trace.internal
                        else record.dst_ip)
            external = (record.dst_ip if internal == record.src_ip
                        else record.src_ip)
            assert internal >> 80 in (WIRED_NET6 >> 80, WIRELESS_NET6 >> 80)
            assert external >> 96 == SERVER_NET6 >> 96

    def test_leg_classification_works_for_v6(self, dual_stack_trace):
        for record in dual_stack_trace.records[:3000]:
            assert (record.src_ip in dual_stack_trace.internal) != (
                record.dst_ip in dual_stack_trace.internal
            )

    def test_dart_samples_both_families(self, dual_stack_trace):
        leg = LegFilter(dual_stack_trace.internal, legs=("external",))
        dart = Dart(ideal_config(), leg_filter=leg)
        for record in dual_stack_trace.records:
            dart.process(record)
        v6_samples = [s for s in dart.samples if s.flow.ipv6]
        v4_samples = [s for s in dart.samples if not s.flow.ipv6]
        assert v6_samples and v4_samples

    def test_constrained_tables_handle_v6(self, dual_stack_trace):
        from repro.core import DartConfig

        dart = Dart(DartConfig(rt_slots=1 << 14, pt_slots=1 << 10,
                               max_recirculations=1))
        for record in dual_stack_trace.records:
            dart.process(record)
        assert dart.stats.samples > 0

    def test_zero_fraction_is_pure_v4(self):
        trace = generate_campus_trace(
            CampusTraceConfig(connections=40, seed=1, ipv6_fraction=0.0)
        )
        assert not any(r.ipv6 for r in trace.records)

"""Tests for IP address helpers and prefix aggregation."""

import ipaddress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.inet import (
    InternalNetwork,
    bytes_to_ipv4,
    bytes_to_ipv6,
    format_prefix,
    int_to_ipv4,
    int_to_ipv6,
    ipv4_to_bytes,
    ipv4_to_int,
    ipv6_to_bytes,
    ipv6_to_int,
    prefix_of,
)

v4 = st.integers(min_value=0, max_value=(1 << 32) - 1)
v6 = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestIPv4:
    def test_parse_format(self):
        assert ipv4_to_int("10.1.2.3") == 0x0A010203
        assert int_to_ipv4(0x0A010203) == "10.1.2.3"

    def test_reject_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_ipv4(1 << 32)

    def test_bytes_roundtrip_fixed(self):
        assert bytes_to_ipv4(ipv4_to_bytes(0x01020304)) == 0x01020304

    def test_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            bytes_to_ipv4(b"\x01\x02\x03")

    @given(v4)
    def test_string_roundtrip(self, addr):
        assert ipv4_to_int(int_to_ipv4(addr)) == addr

    @given(v4)
    def test_bytes_roundtrip(self, addr):
        assert bytes_to_ipv4(ipv4_to_bytes(addr)) == addr


class TestIntToIPv4:
    """``int_to_ipv4`` formats by hand; it must say what ``ipaddress`` says."""

    @given(v4)
    @example(0)
    @example((1 << 32) - 1)
    @example(0x00FF00FF)
    def test_matches_ipaddress(self, addr):
        assert int_to_ipv4(addr) == str(ipaddress.IPv4Address(addr))

    @pytest.mark.parametrize("addr", [-1, 1 << 32])
    def test_out_of_range_raises_value_error(self, addr):
        with pytest.raises(ValueError, match="out of range"):
            int_to_ipv4(addr)


class TestIPv6:
    def test_parse_format(self):
        assert ipv6_to_int("::1") == 1
        assert int_to_ipv6(1) == "::1"

    def test_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            bytes_to_ipv6(b"\x00" * 15)

    @given(v6)
    def test_string_roundtrip(self, addr):
        assert ipv6_to_int(int_to_ipv6(addr)) == addr

    @given(v6)
    def test_bytes_roundtrip(self, addr):
        assert bytes_to_ipv6(ipv6_to_bytes(addr)) == addr


class TestPrefixes:
    def test_slash24(self):
        addr = ipv4_to_int("192.168.7.42")
        assert prefix_of(addr, 24) == ipv4_to_int("192.168.7.0")

    def test_slash0_and_32(self):
        addr = ipv4_to_int("1.2.3.4")
        assert prefix_of(addr, 0) == 0
        assert prefix_of(addr, 32) == addr

    def test_reject_bad_length(self):
        with pytest.raises(ValueError):
            prefix_of(0, 33)

    def test_format_prefix(self):
        assert format_prefix(ipv4_to_int("10.2.9.1"), 16) == "10.2.0.0/16"

    @given(v4, st.integers(min_value=0, max_value=32))
    def test_prefix_idempotent(self, addr, length):
        p = prefix_of(addr, length)
        assert prefix_of(p, length) == p

    @given(v4, st.integers(min_value=0, max_value=32))
    def test_prefix_member_of_itself(self, addr, length):
        assert addr in InternalNetwork([(addr, length)])

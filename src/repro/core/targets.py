"""Operator flow selection — paper §4, "Specifying target flows".

Dart lets the operator install rules from the control plane selecting
which subset of flows to track, without recompiling: source/destination
IP prefixes and port numbers or port ranges.  :class:`TargetFlowTable`
models that rule table; its :meth:`matches` is used as the Dart
pipeline's ``target_filter``.

Rules match a packet in *either* direction of a connection (a rule
written for client->server must also admit the server->client ACKs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..net.inet import prefix_of


@dataclass(frozen=True)
class TargetRule:
    """One control-plane rule.

    Any field left at None is a wildcard.  Prefixes are
    ``(network_int, prefix_len)`` tuples; port ranges are inclusive
    ``(low, high)`` tuples.
    """

    src_prefix: Optional[Tuple[int, int]] = None
    dst_prefix: Optional[Tuple[int, int]] = None
    src_ports: Optional[Tuple[int, int]] = None
    dst_ports: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        for name in ("src_ports", "dst_ports"):
            ports = getattr(self, name)
            if ports is not None:
                low, high = ports
                if not (0 <= low <= high <= 0xFFFF):
                    raise ValueError(f"bad port range in {name}: {ports}")
        for name in ("src_prefix", "dst_prefix"):
            prefix = getattr(self, name)
            if prefix is not None:
                _, length = prefix
                if not 0 <= length <= 32:
                    raise ValueError(f"bad prefix length in {name}: {length}")

    def _matches_oriented(
        self, src_ip: int, dst_ip: int, src_port: int, dst_port: int
    ) -> bool:
        if self.src_prefix is not None:
            network, length = self.src_prefix
            if prefix_of(src_ip, length) != prefix_of(network, length):
                return False
        if self.dst_prefix is not None:
            network, length = self.dst_prefix
            if prefix_of(dst_ip, length) != prefix_of(network, length):
                return False
        if self.src_ports is not None:
            low, high = self.src_ports
            if not low <= src_port <= high:
                return False
        if self.dst_ports is not None:
            low, high = self.dst_ports
            if not low <= dst_port <= high:
                return False
        return True

    def matches(self, src_ip: int, dst_ip: int, src_port: int,
                dst_port: int) -> bool:
        """True when the packet (in either direction) matches the rule."""
        return self._matches_oriented(
            src_ip, dst_ip, src_port, dst_port
        ) or self._matches_oriented(dst_ip, src_ip, dst_port, src_port)


class TargetFlowTable:
    """The installable rule set.  An empty table matches everything
    (monitor-all is the deployment default)."""

    def __init__(self, rules: Optional[List[TargetRule]] = None) -> None:
        self._rules: List[TargetRule] = list(rules or [])

    def add(self, rule: TargetRule) -> None:
        """Install a rule (control-plane operation; no redeploy needed)."""
        self._rules.append(rule)

    def remove(self, rule: TargetRule) -> bool:
        """Uninstall a rule; returns False when it was not installed."""
        try:
            self._rules.remove(rule)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._rules)

    def matches(self, src_ip: int, dst_ip: int, src_port: int,
                dst_port: int) -> bool:
        """The pipeline's ``target_filter``: the packet's 4-tuple in."""
        if not self._rules:
            return True
        return any(rule.matches(src_ip, dst_ip, src_port, dst_port)
                   for rule in self._rules)

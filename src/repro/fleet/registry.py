"""FlowRegistry: exactly-once flow accounting across vantage points.

A connection that crosses two monitored taps is observed — and sampled —
by two agents.  Summing their per-flow sample counts would double-count
it; dropping one tap's view entirely would hide that the flow *is*
multi-homed (the situation the BGP-interception detector cares about
most).  The registry resolves this with a *primary-tap* rule:

* Flows are keyed by their canonical form (``FlowKey.canonical()``), so
  the two directions of one connection — and the same direction seen at
  different taps — collapse to one entry.
* The first agent to report a flow becomes its **primary tap**; the
  merged exactly-once sample count for the fleet is the sum of primary
  counts only.
* Every other observer is retained as an attributed duplicate, so the
  multi-tap view is *reported*, not discarded.

Counts are **cumulative per agent** and merge by replacement (the fleet
delta protocol re-sends each agent's full count map), which makes agent
restart/resume naturally idempotent: a replayed report overwrites the
previous value instead of adding to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List

from ..core.flow import FlowKey

__all__ = ["FlowRegistry", "FlowView"]


def _canonical(key: Hashable) -> Hashable:
    """Collapse both directions of a flow; pass other key types through."""
    if isinstance(key, FlowKey):
        return key.canonical()
    return key


@dataclass
class FlowView:
    """One canonical flow as the merged fleet sees it."""

    key: Hashable
    #: Agent ids in observation order; ``observers[0]`` is the primary.
    observers: List[str] = field(default_factory=list)
    #: Latest cumulative sample count reported by each observer.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def primary(self) -> str:
        return self.observers[0]

    @property
    def primary_count(self) -> int:
        """The exactly-once contribution of this flow to fleet totals."""
        return self.counts.get(self.primary, 0)

    @property
    def duplicate_observers(self) -> List[str]:
        return self.observers[1:]


class FlowRegistry:
    """Merge per-agent cumulative flow counts into an exactly-once view."""

    def __init__(self) -> None:
        self._flows: Dict[Hashable, FlowView] = {}

    def __len__(self) -> int:
        return len(self._flows)

    def observe(self, agent: str, key: Hashable, count: int) -> FlowView:
        """Record ``agent``'s latest cumulative ``count`` for ``key``."""
        canonical = _canonical(key)
        view = self._flows.get(canonical)
        if view is None:
            view = FlowView(key=canonical)
            self._flows[canonical] = view
        if agent not in view.counts:
            view.observers.append(agent)
        view.counts[agent] = count
        return view

    def forget_agent(self, agent: str) -> None:
        """Drop an agent's observations entirely (operator removal, not
        churn — a crashed agent's counts stay until it resumes or is
        explicitly forgotten).  Primariness passes to the next observer;
        flows only this agent saw disappear from the merged view.
        """
        dead: List[Hashable] = []
        for key, view in self._flows.items():
            if agent in view.counts:
                del view.counts[agent]
                view.observers.remove(agent)
                if not view.observers:
                    dead.append(key)
        for key in dead:
            del self._flows[key]

    # -- merged-view accessors -------------------------------------------

    def flows(self) -> List[FlowView]:
        return list(self._flows.values())

    def unique_flows(self) -> int:
        return len(self._flows)

    def duplicate_flows(self) -> int:
        """Flows observed at more than one tap."""
        return sum(1 for v in self._flows.values() if len(v.observers) > 1)

    def exactly_once_samples(self) -> int:
        """Fleet-wide sample total with multi-tap flows counted once."""
        return sum(v.primary_count for v in self._flows.values())

    def attributed_samples(self) -> int:
        """Sum over *all* taps — the raw (double-counting) total, kept
        visible so ``attributed - exactly_once`` quantifies overlap."""
        return sum(sum(v.counts.values()) for v in self._flows.values())

    def per_agent_samples(self) -> Dict[str, int]:
        """Each agent's cumulative sample total across its flows."""
        totals: Dict[str, int] = {}
        for view in self._flows.values():
            for agent, count in view.counts.items():
                totals[agent] = totals.get(agent, 0) + count
        return totals

    def to_summary(self, *, describe_keys: bool = True) -> List[Dict[str, Any]]:
        """JSON-safe attribution table (one row per canonical flow)."""
        rows = []
        for view in self._flows.values():
            key = view.key
            if describe_keys and isinstance(key, FlowKey):
                rendered: Any = key.describe()
            else:
                rendered = str(key)
            rows.append({
                "flow": rendered,
                "primary": view.primary,
                "samples": view.primary_count,
                "observers": {a: view.counts[a] for a in view.observers},
            })
        rows.sort(key=lambda r: (-r["samples"], r["flow"]))
        return rows

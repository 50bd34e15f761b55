"""Shared stats behaviour for monitor counter dataclasses.

Every monitor in this library exposes a ``stats`` dataclass of plain
additive counters.  The sharded cluster (:mod:`repro.cluster`) merges
per-shard stats by summation; :class:`AdditiveCounters` provides that
``merge`` once, and its JSON-safe state (``to_state``/``from_state``),
so each monitor's stats class stays a bare field list.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict


class AdditiveCounters:
    """Mixin: fold another stats object in by summing every field.

    An int field adds; a dict field (a verdict→count histogram) adds
    key by key, new keys appended in ``other``'s order.  ``__slots__``
    is empty so ``slots=True`` dataclass subclasses keep their
    per-instance dict-free layout.
    """

    __slots__ = ()

    def merge(self, other: "AdditiveCounters") -> "AdditiveCounters":
        """Add ``other``'s counters into this object; returns self."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        for f in fields(self):  # type: ignore[arg-type]
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, f.name, mine + theirs)
        return self

    def to_state(self) -> Dict[str, Any]:
        """JSON-safe counters: an int stays an int, and a verdict dict
        (keyed by the enum its field's ``metadata["keys"]`` names)
        becomes ``{verdict.value: count}``."""
        state: Dict[str, Any] = {}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {key.value: count for key, count in value.items()}
            state[f.name] = value
        return state

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "AdditiveCounters":
        """Rebuild from :meth:`to_state` output; an omitted field reads
        0.  ``ValueError`` on an unknown field or verdict, or a bad count
        (see :func:`natural`)."""
        known = {f.name: f for f in fields(cls)}  # type: ignore[arg-type]
        stats = cls()
        for name, value in state.items():
            if name not in known:
                raise ValueError(f"{cls.__name__} has no field {name!r}")
            verdicts = known[name].metadata.get("keys")
            if verdicts is not None:
                value = {verdicts(key): natural(count)
                         for key, count in value.items()}
            else:
                value = natural(value)
            setattr(stats, name, value)
        return stats


def natural(value: Any) -> int:
    """``value`` if it is a non-negative ``int`` (not a ``bool``)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a non-negative int")
    return value

"""Shared stats behaviour for monitor counter dataclasses.

Every monitor in this library exposes a ``stats`` dataclass of plain
additive counters.  The sharded cluster (:mod:`repro.cluster`) merges
per-shard stats by summation; :class:`AdditiveCounters` provides that
``merge`` once, so each monitor's stats class stays a bare field list.
"""

from __future__ import annotations

from dataclasses import fields


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

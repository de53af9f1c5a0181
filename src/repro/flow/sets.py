"""Symbolic packet sets: predicates over header fields.

The atoms are :class:`IntervalSet` values — unions of disjoint
inclusive integer intervals over one header field's universe, built
from ranges or single values.  Destination classes
(:mod:`repro.flow.reach`) and zone/tenant address spaces are interval
sets over ``dst``.  A :class:`PacketSet` is a union of *cubes*, each
cube constraining every field of the data-plane header
(:data:`FIELDS`: ``src``/``dst`` are 16-bit addresses, ``ttl`` is 8
bits) by one interval set.  That is the shape of a violation witness:
the analysis emits one cube per ``(src, ttl)`` holding every
destination that violates a property there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.errors import ConfigurationError

#: Data-plane header fields the symbolic analysis tracks, with their
#: bit widths (the ``IP_HEADER`` fields forwarding semantics touch).
FIELDS: dict[str, int] = {"src": 16, "dst": 16, "ttl": 8}

#: Inclusive upper bound of each field's universe.
FIELD_MAX: dict[str, int] = {name: (1 << bits) - 1 for name, bits in FIELDS.items()}


@dataclass(frozen=True)
class IntervalSet:
    """A union of disjoint, sorted, inclusive integer intervals."""

    intervals: tuple[tuple[int, int], ...]

    # -- constructors --------------------------------------------------
    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return _EMPTY

    @classmethod
    def of(cls, *values: int) -> "IntervalSet":
        """The set holding exactly ``values``."""
        return cls.from_intervals((v, v) for v in values)

    @classmethod
    def span(cls, lo: int, hi: int) -> "IntervalSet":
        """The inclusive interval ``[lo, hi]`` (empty when ``lo > hi``)."""
        if lo > hi:
            return _EMPTY
        return cls(((lo, hi),))

    @classmethod
    def from_intervals(
        cls, pairs: Iterable[tuple[int, int]]
    ) -> "IntervalSet":
        """Normalise arbitrary ``(lo, hi)`` pairs: sort, merge, drop empties."""
        cleaned = sorted((lo, hi) for lo, hi in pairs if lo <= hi)
        merged: list[tuple[int, int]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    # -- predicates ----------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when no value is in the set."""
        return not self.intervals

    def __contains__(self, value: int) -> bool:
        return any(lo <= value <= hi for lo, hi in self.intervals)

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def min(self) -> int:
        """Smallest member (raises on the empty set)."""
        if self.is_empty:
            raise ValueError("empty interval set has no minimum")
        return self.intervals[0][0]

    # -- algebra -------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return IntervalSet.from_intervals(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection (two-pointer sweep over sorted intervals)."""
        if self.is_empty or other.is_empty:
            return _EMPTY
        out: list[tuple[int, int]] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """Members of ``self`` not in ``other``."""
        if self.is_empty or other.is_empty:
            return self
        out: list[tuple[int, int]] = []
        for lo, hi in self.intervals:
            cursor = lo
            for olo, ohi in other.intervals:
                if ohi < cursor:
                    continue
                if olo > hi:
                    break
                if olo > cursor:
                    out.append((cursor, olo - 1))
                cursor = max(cursor, ohi + 1)
                if cursor > hi:
                    break
            if cursor <= hi:
                out.append((cursor, hi))
        return IntervalSet(tuple(out))

    def __repr__(self) -> str:
        if self.is_empty:
            return "{}"
        return "{" + ",".join(
            (str(lo) if lo == hi else f"{lo}-{hi}")
            for lo, hi in self.intervals
        ) + "}"


_EMPTY = IntervalSet(())


# ----------------------------------------------------------------------
# Packet sets: unions of per-field cubes
# ----------------------------------------------------------------------
Cube = tuple[tuple[str, IntervalSet], ...]
"""One cube: ``((field, interval_set), ...)`` in :data:`FIELDS` order.

Every field is present; an unconstrained field carries its full
universe.  The tuple form keeps cubes hashable for dedup.
"""


def _full(field: str) -> IntervalSet:
    return IntervalSet.span(0, FIELD_MAX[field])


def cube(**constraints: IntervalSet | int | tuple[int, int]) -> "PacketSet":
    """One-cube packet set from keyword field constraints.

    Each value may be an :class:`IntervalSet`, a single int, or a
    ``(lo, hi)`` pair; unnamed fields are unconstrained::

        cube(dst=IntervalSet.span(8, 15), ttl=32)
    """
    entries: list[tuple[str, IntervalSet]] = []
    for field in FIELDS:
        value = constraints.pop(field, None)
        if value is None:
            entries.append((field, _full(field)))
        elif isinstance(value, IntervalSet):
            entries.append((field, value))
        elif isinstance(value, tuple):
            entries.append((field, IntervalSet.span(*value)))
        else:
            entries.append((field, IntervalSet.of(value)))
    if constraints:
        raise ConfigurationError(
            f"unknown packet fields {sorted(constraints)}; "
            f"have {sorted(FIELDS)}"
        )
    c = tuple(entries)
    return PacketSet(()) if any(s.is_empty for _, s in c) else PacketSet((c,))


@dataclass(frozen=True)
class PacketSet:
    """A union of cubes — the symbolic packet-set predicate."""

    cubes: tuple[Cube, ...]

    # -- predicates ----------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the predicate matches no packet."""
        return not self.cubes

    def project(self, field: str) -> IntervalSet:
        """The union of ``field``'s values across all cubes."""
        out = IntervalSet.empty()
        for c in self.cubes:
            out = out.union(dict(c)[field])
        return out

    def sample(self) -> dict[str, int]:
        """One concrete witness packet (raises on the empty set)."""
        if self.is_empty:
            raise ValueError("empty packet set has no witness")
        return {field: s.min() for field, s in self.cubes[0]}

    # -- emitters ------------------------------------------------------
    def as_dict(self) -> list[dict[str, list[list[int]]]]:
        """JSON-shaped cube list (field -> interval pairs), canonical order."""
        shaped = [
            {field: [list(pair) for pair in s.intervals] for field, s in c}
            for c in self.cubes
        ]
        return sorted(shaped, key=lambda c: sorted(c.items()))

    def __repr__(self) -> str:
        if self.is_empty:
            return "PacketSet(∅)"
        parts = []
        for c in self.cubes[:4]:
            constrained = [
                f"{field}={s!r}"
                for field, s in c
                if s != _full(field)
            ]
            parts.append("{" + " ".join(constrained) + "}" if constrained else "{*}")
        if len(self.cubes) > 4:
            parts.append(f"... +{len(self.cubes) - 4} cubes")
        return "PacketSet(" + " ∪ ".join(parts) + ")"

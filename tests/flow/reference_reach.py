"""A frozen copy of the cube fixpoint that flow analysis used to run.

``reachability`` injected one symbolic packet set per node and pushed
sets through per-node transfer functions with a worklist until nothing
new arrived anywhere; the no-escape, blackhole-freedom and isolation
checks read its per-node ``seen`` and drop sets.  It took N² steps on an
N-node grid.  The live engine walks destination classes instead
(:mod:`repro.flow.reach`); ``test_reach_differential.py`` holds the two
equal on random specs.  This file keeps the fixpoint, its transfer step
and the packet-set operations only they used.  Delete it together with
that test once nobody needs the comparison.  ``destination_classes``
is the class partition as it was computed before, by refining the whole
``dst`` space with every node's next-hop groups.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.flow.sets import FIELD_MAX, FIELDS, IntervalSet
from repro.flow.spec import FlowSpec
from repro.flow.transfer import DROP_NO_INTERFACE, DROP_NO_ROUTE, DROP_TTL
from repro.network.packets import Address


def complement(s: IntervalSet, lo: int, hi: int) -> IntervalSet:
    """Members of the universe ``[lo, hi]`` not in ``s``."""
    return IntervalSet.span(lo, hi).subtract(s)


def shift(s: IntervalSet, delta: int, lo: int, hi: int) -> IntervalSet:
    """Every member moved by ``delta``, clipped to ``[lo, hi]``."""
    return IntervalSet.from_intervals(
        (max(a + delta, lo), min(b + delta, hi)) for a, b in s.intervals
    )


Cube = tuple[tuple[str, IntervalSet], ...]


def _full(field: str) -> IntervalSet:
    return IntervalSet.span(0, FIELD_MAX[field])


def cube(**constraints: IntervalSet | int | tuple[int, int]) -> "PacketSet":
    """One-cube packet set; unnamed fields are unconstrained."""
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
        raise ConfigurationError(f"unknown packet fields {sorted(constraints)}")
    c = tuple(entries)
    return PacketSet(()) if any(s.is_empty for _, s in c) else PacketSet((c,))


def _cube_intersect(a: Cube, b: Cube) -> Cube | None:
    out: list[tuple[str, IntervalSet]] = []
    for (field, sa), (_, sb) in zip(a, b):
        s = sa.intersect(sb)
        if s.is_empty:
            return None
        out.append((field, s))
    return tuple(out)


def _cube_subtract(a: Cube, b: Cube) -> list[Cube]:
    """``a`` minus ``b`` as disjoint cubes, peeling one field at a time."""
    if _cube_intersect(a, b) is None:
        return [a]
    pieces: list[Cube] = []
    remainder = list(a)
    for index, (field, sa) in enumerate(a):
        sb = dict(b)[field]
        outside = sa.subtract(sb)
        if not outside.is_empty:
            piece = list(remainder)
            piece[index] = (field, outside)
            pieces.append(tuple(piece))
        remainder[index] = (field, sa.intersect(sb))
    return pieces


@dataclass(frozen=True)
class PacketSet:
    """A union of disjoint cubes."""

    cubes: tuple[Cube, ...]

    @classmethod
    def empty(cls) -> "PacketSet":
        return cls(())

    @classmethod
    def all(cls) -> "PacketSet":
        return cube()

    @property
    def is_empty(self) -> bool:
        return not self.cubes

    def contains(self, packet: Mapping[str, int]) -> bool:
        return any(
            all(packet[field] in s for field, s in c) for c in self.cubes
        )

    def count(self) -> int:
        total = 0
        for c in self.cubes:
            n = 1
            for _, s in c:
                n *= len(s)
            total += n
        return total

    def union(self, other: "PacketSet") -> "PacketSet":
        added = other.subtract(self)
        return PacketSet(self.cubes + added.cubes)

    def intersect(self, other: "PacketSet") -> "PacketSet":
        out: list[Cube] = []
        for a in self.cubes:
            for b in other.cubes:
                c = _cube_intersect(a, b)
                if c is not None:
                    out.append(c)
        return PacketSet(tuple(out))

    def subtract(self, other: "PacketSet") -> "PacketSet":
        cubes = list(self.cubes)
        for b in other.cubes:
            if not cubes:
                break
            next_cubes: list[Cube] = []
            for a in cubes:
                next_cubes.extend(_cube_subtract(a, b))
            cubes = next_cubes
        return PacketSet(tuple(cubes))

    def negate(self) -> "PacketSet":
        return PacketSet.all().subtract(self)

    def constrain(self, field: str, allowed: IntervalSet) -> "PacketSet":
        out: list[Cube] = []
        for c in self.cubes:
            entries = [
                (name, s.intersect(allowed) if name == field else s)
                for name, s in c
            ]
            if not any(s.is_empty for _, s in entries):
                out.append(tuple(entries))
        return PacketSet(tuple(out))

    def shift_field(self, field: str, delta: int) -> "PacketSet":
        out: list[Cube] = []
        for c in self.cubes:
            entries = [
                (name, shift(s, delta, 0, FIELD_MAX[field]) if name == field else s)
                for name, s in c
            ]
            if not any(s.is_empty for _, s in entries):
                out.append(tuple(entries))
        return PacketSet(tuple(out))

    def project(self, field: str) -> IntervalSet:
        out = IntervalSet.empty()
        for c in self.cubes:
            out = out.union(dict(c)[field])
        return out

    def as_dict(self) -> list[dict[str, list[list[int]]]]:
        shaped = [
            {field: [list(pair) for pair in s.intervals] for field, s in c}
            for c in self.cubes
        ]
        return sorted(shaped, key=lambda c: sorted(c.items()))


@dataclass
class TransferResult:
    """What one symbolic step at a node does to an arriving packet set."""

    delivered: PacketSet
    dropped: dict[str, PacketSet]
    forwarded: dict[Address, PacketSet]


class ReferenceTransfer:
    """One node's forwarding sublayer as a packet-set function."""

    def __init__(self, spec: FlowSpec, address: Address):
        self.address = address
        neighbors = spec.neighbors(address)
        self.groups: dict[Address, IntervalSet] = {}
        for dst, next_hop in spec.fib_of(address).items():
            self.groups[next_hop] = self.groups.get(
                next_hop, IntervalSet.empty()
            ).union(IntervalSet.of(dst))
        self.unresolvable = frozenset(self.groups) - neighbors
        self.routed = IntervalSet.empty()
        for dsts in self.groups.values():
            self.routed = self.routed.union(dsts)

    def apply(self, arriving: PacketSet, originate: bool = False) -> TransferResult:
        """One symbolic step, mirroring ``ForwardingSublayer.forward``
        (``originate=True``: ``ForwardingSublayer.originate``)."""
        local = IntervalSet.of(self.address)
        delivered = arriving.constrain("dst", local)
        transit = arriving.constrain("dst", complement(local, 0, 0xFFFF))
        no_route = transit.constrain("dst", complement(self.routed, 0, 0xFFFF))
        routed = transit.constrain("dst", self.routed)
        dropped = {
            DROP_NO_ROUTE: no_route,
            DROP_TTL: PacketSet.empty(),
            DROP_NO_INTERFACE: PacketSet.empty(),
        }
        if not originate:
            dropped[DROP_TTL] = routed.constrain("ttl", IntervalSet.span(0, 1))
            routed = routed.constrain("ttl", IntervalSet.span(2, 255))
        forwarded: dict[Address, PacketSet] = {}
        for next_hop in sorted(self.groups):
            out = routed.constrain("dst", self.groups[next_hop])
            if out.is_empty:
                continue
            if next_hop in self.unresolvable:
                dropped[DROP_NO_INTERFACE] = dropped[DROP_NO_INTERFACE].union(out)
                continue
            if not originate:
                out = out.shift_field("ttl", -1)
            forwarded[next_hop] = out
        return TransferResult(delivered=delivered, dropped=dropped, forwarded=forwarded)


@dataclass
class ReachResult:
    """Everything the fixed point learned about a spec."""

    seen: dict[Address, PacketSet]
    delivered: dict[Address, PacketSet]
    dropped: dict[Address, dict[str, PacketSet]]
    iterations: int = 0


def reachability(spec: FlowSpec) -> ReachResult:
    """Inject ``cube(src=node, ttl=spec.ttl)`` at every node and run the
    worklist until no node sees a packet it has not seen before."""
    transfers = {node: ReferenceTransfer(spec, node) for node in spec.nodes}
    result = ReachResult(
        seen={node: PacketSet.empty() for node in spec.nodes},
        delivered={node: PacketSet.empty() for node in spec.nodes},
        dropped={
            node: {
                kind: PacketSet.empty()
                for kind in (DROP_TTL, DROP_NO_ROUTE, DROP_NO_INTERFACE)
            }
            for node in spec.nodes
        },
    )
    work: deque[tuple[Address, PacketSet, bool]] = deque(
        (node, cube(src=node, ttl=spec.ttl), True) for node in spec.nodes
    )
    while work:
        node, arriving, originate = work.popleft()
        fresh = arriving.subtract(result.seen[node])
        if fresh.is_empty:
            continue
        result.iterations += 1
        result.seen[node] = result.seen[node].union(fresh)
        step = transfers[node].apply(fresh, originate=originate)
        result.delivered[node] = result.delivered[node].union(step.delivered)
        for kind, dropped in step.dropped.items():
            result.dropped[node][kind] = result.dropped[node][kind].union(dropped)
        for next_hop, out in step.forwarded.items():
            work.append((next_hop, out, False))
    return result


def escapes(spec: FlowSpec, reach: ReachResult) -> dict[tuple[str, Address], PacketSet]:
    """``(zone, outsider) -> zone-internal packets seen there``."""
    found = {}
    for zone in spec.zones:
        if zone.space.is_empty or not zone.nodes:
            continue
        internal = cube(src=IntervalSet.of(*zone.nodes), dst=zone.space)
        for node in spec.nodes:
            if node not in zone.nodes:
                met = reach.seen[node].intersect(internal)
                if not met.is_empty:
                    found[(zone.name, node)] = met
    return found


def blackholes(spec: FlowSpec, reach: ReachResult) -> dict[Address, PacketSet]:
    """``node -> packets to deliverable addresses it drops for want of a
    route or an interface``."""
    found = {}
    for node in spec.nodes:
        lost = reach.dropped[node][DROP_NO_ROUTE].union(
            reach.dropped[node][DROP_NO_INTERFACE]
        ).constrain("dst", spec.deliverable())
        if not lost.is_empty:
            found[node] = lost
    return found


def tenant_meets(
    spec: FlowSpec, reach: ReachResult
) -> dict[tuple[str, str, Address], PacketSet]:
    """``(tenant, other tenant, node) -> the tenant's intra-tenant
    packets seen at a node only the other tenant owns``."""
    found = {}
    for a in spec.tenants:
        if not a.nodes or a.space.is_empty:
            continue
        intra = cube(src=IntervalSet.of(*a.nodes), dst=a.space)
        for b in spec.tenants:
            if b.name == a.name:
                continue
            for node in sorted(b.nodes - a.nodes):
                met = reach.seen[node].intersect(intra)
                if not met.is_empty:
                    found[(a.name, b.name, node)] = met
    return found


def destination_classes(spec: FlowSpec) -> list[IntervalSet]:
    """Refine ``[0, 0xFFFF]`` by every node's own address and next-hop
    groups: two destinations share a class iff every node treats them
    identically."""
    classes = [IntervalSet.span(0, 0xFFFF)]
    for node in spec.nodes:
        transfer = ReferenceTransfer(spec, node)
        splitters = [IntervalSet.of(node), *transfer.groups.values()]
        refined: list[IntervalSet] = []
        for cls in classes:
            remainder = cls
            for dsts in splitters:
                inside = remainder.intersect(dsts)
                if not inside.is_empty:
                    refined.append(inside)
                    remainder = remainder.subtract(dsts)
                if remainder.is_empty:
                    break
            if not remainder.is_empty:
                refined.append(remainder)
        classes = refined
    return classes

"""Destination classes, and the walks that decide reachability.

Destination *classes* (:func:`destination_classes`) partition the
``dst`` universe by the vector of FIB decisions across all nodes:
every node treats two destinations of one class identically.  Inside a
class forwarding is therefore a *function* of the node, so the packets
one ingress sends into a class follow exactly one path.  A
:class:`Walk` follows it with concrete per-node decisions
(:meth:`~repro.flow.transfer.NodeTransfer.decide`), starting with
origination semantics and the spec's TTL; every forward strictly
decrements TTL, so walks halt even when FIBs loop.  No-escape,
blackhole-freedom and isolation read the walks.

FIB loops are exactly the cycles of a class's next-hop functional graph
(:func:`find_loops`) — the symbolic equivalent of "a packet set
re-enters a node with non-decreasing TTL" under TTL-erased semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.packets import Address
from .sets import FIELD_MAX, IntervalSet
from .transfer import FORWARDED, TransferGraph

#: Every destination address.
UNIVERSE = IntervalSet.span(0, FIELD_MAX["dst"])


def destination_classes(graph: TransferGraph) -> list[IntervalSet]:
    """Partition the ``dst`` universe by FIB behaviour.

    Delivery is a FIB decision too — the owner consumes what everyone
    else forwards — so each node address is a class of its own.  Other
    FIB keys are grouped by their vector of per-node next hops, and
    every address no node routes forms one "routed nowhere" class.  The
    partition size is bounded by the number of distinct FIB keys plus
    one, not by the 2^16 address space.
    """
    owners = set(graph.nodes)
    vectors: dict[Address, list[Address | None]] = {}
    for i, node in enumerate(graph.nodes):
        for next_hop, dsts in graph.at(node).groups.items():
            for dst in dsts.intersect(UNIVERSE):
                if dst not in owners:
                    vectors.setdefault(dst, [None] * len(owners))[i] = next_hop
    grouped: dict[tuple[Address | None, ...], list[Address]] = {}
    for dst, vector in vectors.items():
        grouped.setdefault(tuple(vector), []).append(dst)
    classes = [IntervalSet.of(node) for node in owners if node in UNIVERSE]
    classes += [IntervalSet.of(*dsts) for dsts in grouped.values()]
    nowhere = UNIVERSE.subtract(IntervalSet.of(*owners, *vectors))
    if not nowhere.is_empty:
        classes.append(nowhere)
    return sorted(classes, key=IntervalSet.min)


@dataclass(frozen=True)
class Walk:
    """The path of one ingress's packets into one destination class."""

    #: ``(node, arriving ttl)`` for every node the packets are seen at.
    visits: tuple[tuple[Address, int], ...]
    #: How the path ends: delivered, or one of the drop kinds.
    fate: str


def walk(graph: TransferGraph, src: Address, dsts: IntervalSet) -> Walk:
    """Follow the packets ``src`` originates to ``dsts`` (one class),
    deciding on the class's least address at every hop."""
    dst = dsts.min()
    transfers = graph.transfers
    node, ttl, originate = src, graph.spec.ttl, True
    visits = []
    while True:
        visits.append((node, ttl))
        fate, next_hop, out_ttl = transfers[node].decide(dst, ttl, originate)
        if fate != FORWARDED:
            return Walk(visits=tuple(visits), fate=fate)
        node, ttl, originate = next_hop, out_ttl, False


@dataclass(frozen=True)
class Loop:
    """One FIB loop: the nodes of the cycle and the destinations caught."""

    cycle: tuple[Address, ...]
    destinations: IntervalSet

    def as_dict(self) -> dict[str, object]:
        """Canonical JSON form."""
        return {
            "cycle": list(self.cycle),
            "destinations": [list(p) for p in self.destinations.intervals],
        }


def find_loops(graph: TransferGraph, classes: list[IntervalSet]) -> list[Loop]:
    """FIB loops, per destination class (exact for dst-keyed FIBs).

    Within one destination class the next hop is a *function* of the
    node, so the forwarding relation is a functional graph; a loop is a
    cycle not containing the destination's owner.  Three-color walk per
    class, O(nodes) each.
    """
    loops: dict[tuple[Address, ...], IntervalSet] = {}
    for cls in classes:
        # Next hop per node for this class (None: deliver-or-drop here).
        # Origination skips the TTL check: the TTL-erased decision.
        dst = cls.min()
        step = {
            node: graph.at(node).decide(dst, 0, originate=True)[1]
            for node in graph.nodes
        }
        color: dict[Address, int] = {}  # 0 visiting path, 1 done
        for start in graph.nodes:
            path: list[Address] = []
            node: Address | None = start
            while node is not None and color.get(node) is None:
                color[node] = 0
                path.append(node)
                node = step[node]
            if node is not None and color.get(node) == 0:
                cycle = tuple(path[path.index(node):])
                # Canonical rotation so the same loop dedups.
                pivot = cycle.index(min(cycle))
                canon = cycle[pivot:] + cycle[:pivot]
                # Every destination in the class is trapped: inside a
                # class the step function is identical for all of them
                # (the owner cannot sit on the cycle — it delivers).
                loops[canon] = loops.get(canon, IntervalSet.empty()).union(cls)
            for visited in path:
                color[visited] = 1
    return [
        Loop(cycle=cycle, destinations=dsts)
        for cycle, dsts in sorted(loops.items())
    ]

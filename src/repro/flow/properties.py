"""The four data-plane properties, decided on destination classes.

:func:`analyze` builds the per-node transfers and the destination
classes once (:mod:`repro.flow.reach`) and walks each ingress's packets
into each class.  The checks read those walks and return violations
with witness packet sets small enough to paste into a bug report: one
cube per ``(src, ttl)`` holding the union of its destinations, in that
order, so a message's "e.g." packet is the least packet of the first
cube.
"""

from __future__ import annotations

from ..network.packets import Address
from .reach import destination_classes, find_loops, walk
from .report import ALL_PROPERTIES, FlowReport, FlowViolation, build_flow_report
from .sets import IntervalSet, PacketSet, cube
from .spec import FlowSpec, Tenant, Zone
from .transfer import (
    DELIVERED,
    DROP_NO_INTERFACE,
    DROP_NO_ROUTE,
    TransferGraph,
    build_transfers,
)

#: Violating packets found at one node: ``(src, ttl) -> dst pieces``.
_Found = dict[tuple[Address, int], list[IntervalSet]]


def _witness(found: _Found) -> PacketSet:
    """One cube per ``(src, ttl)`` with its destinations' union, sorted."""
    return PacketSet(
        tuple(
            cube(
                src=src,
                dst=IntervalSet.from_intervals(
                    pair for dsts in pieces for pair in dsts.intervals
                ),
                ttl=ttl,
            ).cubes[0]
            for (src, ttl), pieces in sorted(found.items())
        )
    )


def _seen_outside(
    graph: TransferGraph, classes: list[IntervalSet], group: Zone | Tenant
) -> dict[Address, PacketSet]:
    """Packets ``group``'s nodes send into its address space, keyed by
    the non-member node they are seen at, in node order."""
    found: dict[Address, _Found] = {}
    for cls in classes:
        inside = cls.intersect(group.space)
        if inside.is_empty:
            continue
        for src in sorted(group.nodes):
            for node, ttl in walk(graph, src, cls).visits:
                if node not in group.nodes:
                    found.setdefault(node, {}).setdefault((src, ttl), []).append(
                        inside
                    )
    return {node: _witness(found[node]) for node in sorted(found)}


def _deliveries(
    spec: FlowSpec, graph: TransferGraph, classes: list[IntervalSet]
) -> tuple[dict[Address, PacketSet], int]:
    """Walk every ingress into every class holding a deliverable address.

    Returns the packets each node drops for want of a route or an
    interface (keyed by node, in node order) and the number of packets
    delivered.
    """
    deliverable = spec.deliverable()
    lost: dict[Address, _Found] = {}
    delivered = 0
    for cls in classes:
        dsts = cls.intersect(deliverable)
        if dsts.is_empty:
            continue
        size = len(dsts)
        for src in spec.nodes:
            path = walk(graph, src, cls)
            if path.fate == DELIVERED:
                delivered += size
            elif path.fate in (DROP_NO_ROUTE, DROP_NO_INTERFACE):
                node, ttl = path.visits[-1]
                lost.setdefault(node, {}).setdefault((src, ttl), []).append(dsts)
    return {node: _witness(lost[node]) for node in sorted(lost)}, delivered


def check_no_escape(
    spec: FlowSpec, graph: TransferGraph, classes: list[IntervalSet]
) -> list[FlowViolation]:
    """Packets addressed inside a zone never reach nodes outside it.

    For every zone: no packet a member sends to the zone's space may be
    seen at a non-member node.  The packets seen there are the escape
    witness.
    """
    violations: list[FlowViolation] = []
    for zone in spec.zones:
        for node, escaped in _seen_outside(graph, classes, zone).items():
            sample = escaped.sample()
            violations.append(
                FlowViolation(
                    property="no-escape",
                    spec=spec.name,
                    node=node,
                    message=(
                        f"zone {zone.name!r} traffic reaches outside "
                        f"node {node} (e.g. src={sample['src']} "
                        f"dst={sample['dst']})"
                    ),
                    witness=escaped.as_dict(),
                )
            )
    return violations


def check_blackhole_freedom(
    spec: FlowSpec, lost: dict[Address, PacketSet]
) -> list[FlowViolation]:
    """Every deliverable address has a path: no packet addressed to an
    assigned node address is dropped for want of a route or interface.

    ``lost`` is the first half of :func:`_deliveries`.  (TTL expiry
    from FIB cycles is the loop check's finding — reported once, there.)
    """
    violations: list[FlowViolation] = []
    for node, packets in lost.items():
        sample = packets.sample()
        dsts = packets.project("dst")
        violations.append(
            FlowViolation(
                property="blackhole-freedom",
                spec=spec.name,
                node=node,
                message=(
                    f"node {node} blackholes deliverable destinations "
                    f"{dsts!r} (e.g. src={sample['src']} "
                    f"dst={sample['dst']})"
                ),
                witness=packets.as_dict(),
            )
        )
    return violations


def check_loop_freedom(
    spec: FlowSpec, graph: TransferGraph, classes: list[IntervalSet]
) -> list[FlowViolation]:
    """No packet set re-enters a node it already traversed.

    Decided on destination classes: inside one class forwarding is a
    functional graph, so loops are exactly its cycles (see
    :func:`~repro.flow.reach.find_loops`).
    """
    violations: list[FlowViolation] = []
    for loop in find_loops(graph, classes):
        violations.append(
            FlowViolation(
                property="loop-freedom",
                spec=spec.name,
                node=loop.cycle[0],
                message=(
                    f"FIB loop {' -> '.join(map(str, loop.cycle))} -> "
                    f"{loop.cycle[0]} for destinations {loop.destinations!r}"
                ),
                witness=loop.as_dict(),
            )
        )
    return violations


def check_isolation(
    spec: FlowSpec, graph: TransferGraph, classes: list[IntervalSet]
) -> list[FlowViolation]:
    """Two tenants' packet sets never meet at the same node/port.

    Two obligations: claimed address spaces are pairwise disjoint (an
    overlap means one delivered packet set belongs to both tenants —
    they meet at the delivery port by construction), and one tenant's
    intra-tenant traffic is never seen at a node owned exclusively by
    another tenant.
    """
    violations: list[FlowViolation] = []
    for i, a in enumerate(spec.tenants):
        for b in spec.tenants[i + 1:]:
            overlap = a.space.intersect(b.space)
            if not overlap.is_empty:
                violations.append(
                    FlowViolation(
                        property="isolation",
                        spec=spec.name,
                        node=None,
                        message=(
                            f"tenants {a.name!r} and {b.name!r} claim "
                            f"overlapping address space {overlap!r}: their "
                            f"packet sets meet at every delivery port in it"
                        ),
                        witness=[list(p) for p in overlap.intervals],
                    )
                )
    for a in spec.tenants:
        seen = _seen_outside(graph, classes, a)
        for b in spec.tenants:
            if b.name == a.name:
                continue
            for node in sorted(b.nodes - a.nodes):
                met = seen.get(node)
                if met is not None:
                    sample = met.sample()
                    violations.append(
                        FlowViolation(
                            property="isolation",
                            spec=spec.name,
                            node=node,
                            message=(
                                f"tenant {a.name!r} traffic meets tenant "
                                f"{b.name!r} at node {node} (e.g. "
                                f"src={sample['src']} dst={sample['dst']})"
                            ),
                            witness=met.as_dict(),
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze(spec: FlowSpec) -> FlowReport:
    """Prove (or refute) all four properties for one spec."""
    graph = build_transfers(spec)
    classes = destination_classes(graph)
    lost, delivered = _deliveries(spec, graph, classes)
    violations = (
        check_no_escape(spec, graph, classes)
        + check_blackhole_freedom(spec, lost)
        + check_loop_freedom(spec, graph, classes)
        + check_isolation(spec, graph, classes)
    )
    stats = {
        "nodes": len(spec.nodes),
        "edges": len({(min(a, b), max(a, b)) for a, b in spec.edges}),
        "classes": len(classes),
        "delivered_packets": delivered,
    }
    return build_flow_report(spec.name, violations, stats)


def analyze_all(specs: list[FlowSpec]) -> dict[str, FlowReport]:
    """Analyze several specs; reports keyed by spec name, input order."""
    return {spec.name: analyze(spec) for spec in specs}


__all__ = [
    "ALL_PROPERTIES",
    "FlowReport",
    "FlowViolation",
    "analyze",
    "analyze_all",
    "check_blackhole_freedom",
    "check_isolation",
    "check_loop_freedom",
    "check_no_escape",
]

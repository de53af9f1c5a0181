"""The four data-plane properties, decided symbolically.

Each check reads the shared :class:`~repro.flow.reach.ReachResult`
(one fixed point per spec, not per property) and returns violations
with witness packet sets small enough to paste into a bug report.
:func:`analyze` runs the fixed point once and applies all four checks.
"""

from __future__ import annotations

from .reach import ReachResult, default_injections, find_loops, reachability
from .report import ALL_PROPERTIES, FlowReport, FlowViolation, build_flow_report
from .sets import IntervalSet, PacketSet, cube
from .spec import FlowSpec
from .transfer import DROP_NO_INTERFACE, DROP_NO_ROUTE


def check_no_escape(spec: FlowSpec, reach: ReachResult) -> list[FlowViolation]:
    """Packets addressed inside a zone never reach nodes outside it.

    For every zone: the set {src ∈ zone nodes, dst ∈ zone space} must
    have empty intersection with the ``seen`` set of every non-member
    node.  A non-empty meet is the escape witness.
    """
    violations: list[FlowViolation] = []
    for zone in spec.zones:
        if zone.space.is_empty or not zone.nodes:
            continue
        internal = cube(
            src=IntervalSet.of(*zone.nodes), dst=zone.space
        )
        for node in spec.nodes:
            if node in zone.nodes:
                continue
            escaped = reach.seen[node].intersect(internal)
            if not escaped.is_empty:
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
    spec: FlowSpec, reach: ReachResult
) -> list[FlowViolation]:
    """Every deliverable address has a path: no packet addressed to an
    assigned node address is dropped for want of a route or interface.

    (TTL expiry from FIB cycles is the loop check's finding — reported
    once, there.)
    """
    deliverable = spec.deliverable()
    violations: list[FlowViolation] = []
    for node in spec.nodes:
        lost = PacketSet.empty()
        for kind in (DROP_NO_ROUTE, DROP_NO_INTERFACE):
            lost = lost.union(reach.dropped[node][kind])
        lost = lost.constrain("dst", deliverable)
        if lost.is_empty:
            continue
        sample = lost.sample()
        dsts = lost.project("dst")
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
                witness=lost.as_dict(),
            )
        )
    return violations


def check_loop_freedom(spec: FlowSpec) -> list[FlowViolation]:
    """No packet set re-enters a node it already traversed.

    Decided on destination classes: inside one class forwarding is a
    functional graph, so loops are exactly its cycles (see
    :func:`~repro.flow.reach.find_loops`).
    """
    violations: list[FlowViolation] = []
    for loop in find_loops(spec):
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


def check_isolation(spec: FlowSpec, reach: ReachResult) -> list[FlowViolation]:
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
        if not a.nodes or a.space.is_empty:
            continue
        intra = cube(src=IntervalSet.of(*a.nodes), dst=a.space)
        for b in spec.tenants:
            if b.name == a.name:
                continue
            exclusive = b.nodes - a.nodes
            for node in sorted(exclusive):
                met = reach.seen[node].intersect(intra)
                if not met.is_empty:
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
    reach = reachability(spec, default_injections(spec))
    violations = (
        check_no_escape(spec, reach)
        + check_blackhole_freedom(spec, reach)
        + check_loop_freedom(spec)
        + check_isolation(spec, reach)
    )
    stats = {
        "nodes": len(spec.nodes),
        "edges": len({(min(a, b), max(a, b)) for a, b in spec.edges}),
        "iterations": reach.iterations,
        "seen_cubes": sum(len(s.cubes) for s in reach.seen.values()),
        "delivered_packets": sum(
            s.count() for s in reach.delivered.values()
        ),
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

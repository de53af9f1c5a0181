"""Fleet-wide fault campaigns: link cuts and partitions at scale.

:func:`fleet_scenario` is one more recipe on the :mod:`repro.faults`
harness — the dependency arrow points downward (topo imports faults,
never the reverse).  Each trial builds the declared graph as a
:class:`~repro.network.topology.Topology` (routers joined by
impairable :class:`ManagedLink`\\ s), runs LSP flooding to
convergence, cuts the given edges — a backbone link, or every edge
across a partition — and demands reconvergence plus post-repair
delivery, judged by the same routing monitors as the host-pair
scenarios.

The partition is a BFS half of the graph (:func:`assign_regions` with
two parts), computed from the edges alone; nothing here reads
:attr:`FleetSpec.regions`.
"""

from __future__ import annotations

from typing import Callable

from ..faults.monitors import Evidence
from ..faults.scenarios import (
    ROUTING_MONITORS,
    Observe,
    Scenario,
    delivers,
    routed_trial,
)
from ..network import Topology
from .spec import FleetSpec, adjacency, assign_regions, make_spec


def fleet_scenario(
    name: str,
    spec: FleetSpec,
    cut: list[tuple[int, int]],
    converge_timeout: float = 60.0,
) -> Scenario:
    """Converge ``spec``'s graph, cut ``cut``, reconverge, repair.

    While cut, "correct routes" means *no* routes across a gap the cut
    opens (the oracle only credits reachable destinations); after
    repair the full mesh must converge again and deliver across the
    healed cut.  The probe pair is the first cut edge's endpoints.
    """
    src, dst = cut[0]

    def script(
        topo: Topology,
        converged: Callable[[], bool],
        observations: dict[str, bool],
    ) -> None:
        """Deliver, cut, reconverge, restore, reconverge, deliver."""
        observations["delivery-before-fault"] = delivers(
            topo, src, dst, b"before"
        )
        for a, b in cut:
            topo.fail_link(a, b)
        observations["reconvergence-after-fault"] = converged()
        observations["routes-correct-after-fault"] = all(
            topo.routes_correct(source) for source in topo.routers
        )
        for a, b in cut:
            topo.restore_link(a, b)
        observations["reconvergence-after-repair"] = converged()
        observations["delivery-after-repair"] = delivers(
            topo, src, dst, b"after"
        )

    def execute(seed: int, observe: Observe) -> Evidence:
        """One routed trial over the spec's graph, sized in its info."""
        evidence = routed_trial(
            name, seed, observe, list(spec.edges), converge_timeout, script
        )
        evidence.extras["info"].update(
            {"nodes": len(spec.nodes), "edges": len(spec.edges)}
        )
        return evidence

    return Scenario(name, "fleet", execute, ROUTING_MONITORS)


def fleet_matrix(
    kind: str = "grid", nodes: int = 16, seed: int = 0
) -> list[Scenario]:
    """The fleet campaign: one link cut and one partition scenario.

    The link cut takes the highest-degree node's first link, so the
    mesh must reroute; the partition cuts every edge between a BFS
    half of the graph and the rest.
    """
    spec = make_spec(kind, nodes, seed=seed)
    adj = adjacency(spec.nodes, spec.edges)
    hub = max(sorted(spec.nodes), key=lambda n: len(adj[n]))
    peer = adj[hub][0]
    island = set(assign_regions(spec.nodes, spec.edges, 2)[0])
    return [
        fleet_scenario(
            f"fleet-linkcut-{spec.name}",
            spec,
            [(min(hub, peer), max(hub, peer))],
        ),
        fleet_scenario(
            f"fleet-partition-{spec.name}",
            spec,
            [(a, b) for a, b in spec.edges if (a in island) != (b in island)],
        ),
    ]


MATRICES: dict[str, Callable[[], list[Scenario]]] = {
    "fleet": fleet_matrix,
    "fleet-smoke": lambda: fleet_matrix(kind="ring", nodes=8),
}

"""The analysis input: a static snapshot of the forwarding plane.

A :class:`FlowSpec` is everything the symbolic engine needs and nothing
it doesn't: node addresses, live directed adjacency, one installed FIB
per node, and the property annotations (zones for no-escape, tenants
for isolation).  No behaviour, no simulator — it is pure data, loadable
from JSON, exportable to JSON, and snapshottable from a running
:class:`~repro.network.topology.Topology` via the network layer's
:meth:`~repro.network.topology.Topology.flow_spec` hook (the dashed
control arrow from the dynamic world into the static analyzer).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.errors import ConfigurationError
from ..network.packets import Address
from .sets import FIELD_MAX, IntervalSet

#: Default initial TTL for injected packet sets (DataPacket.make default).
DEFAULT_TTL = 32


def _spans(pairs: Any, what: str) -> IntervalSet:
    """An :class:`IntervalSet` from JSON ``[[lo, hi], ...]`` pairs."""
    if not isinstance(pairs, (list, tuple)):
        raise ConfigurationError(f"{what}: expected a list of [lo, hi] pairs")
    out = []
    for pair in pairs:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, int) for v in pair)
        ):
            raise ConfigurationError(f"{what}: bad interval {pair!r}")
        out.append((pair[0], pair[1]))
    return IntervalSet.from_intervals(out)


@dataclass(frozen=True)
class Zone:
    """A named set of nodes plus the address space considered "inside".

    ``space`` defaults to exactly the member nodes' addresses.  The
    no-escape property says: packets originated inside the zone with a
    destination in ``space`` must never be seen at a node outside
    ``nodes``.
    """

    name: str
    nodes: frozenset[Address]
    space: IntervalSet

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON form."""
        return {
            "name": self.name,
            "nodes": sorted(self.nodes),
            "space": [list(pair) for pair in self.space.intervals],
        }


@dataclass(frozen=True)
class Tenant:
    """A named traffic owner: its nodes and its claimed address space.

    Isolation says tenants' address spaces are pairwise disjoint and
    one tenant's intra-tenant traffic never appears at a node owned
    exclusively by another.
    """

    name: str
    nodes: frozenset[Address]
    space: IntervalSet

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON form."""
        return {
            "name": self.name,
            "nodes": sorted(self.nodes),
            "space": [list(pair) for pair in self.space.intervals],
        }


@dataclass(frozen=True)
class FlowSpec:
    """A forwarding-plane snapshot: the unit of symbolic analysis."""

    name: str
    #: Node addresses (each node's own address is its identity).
    nodes: tuple[Address, ...]
    #: Live *directed* edges ``(node, peer)``; an undirected link
    #: contributes both directions.
    edges: frozenset[tuple[Address, Address]]
    #: Installed forwarding tables: ``node -> {dst -> next_hop}``.
    fibs: Mapping[Address, Mapping[Address, Address]] = field(
        default_factory=dict
    )
    zones: tuple[Zone, ...] = ()
    tenants: tuple[Tenant, ...] = ()
    #: Initial TTL of injected packet sets.
    ttl: int = DEFAULT_TTL

    def __post_init__(self) -> None:
        """Validate referential integrity once, so the engine never has to."""
        if not 0 <= self.ttl <= FIELD_MAX["ttl"]:
            raise ConfigurationError(
                f"spec {self.name}: ttl {self.ttl} is outside the 8-bit "
                f"TTL field (0-{FIELD_MAX['ttl']})"
            )
        members = set(self.nodes)
        if len(self.nodes) != len(members):
            raise ConfigurationError(f"spec {self.name}: duplicate node address")
        for a, b in self.edges:
            if a not in members or b not in members:
                raise ConfigurationError(
                    f"spec {self.name}: edge ({a}, {b}) references unknown node"
                )
        for node in self.fibs:
            if node not in members:
                raise ConfigurationError(
                    f"spec {self.name}: FIB for unknown node {node}"
                )
        for zone in self.zones:
            if not zone.nodes <= members:
                raise ConfigurationError(
                    f"spec {self.name}: zone {zone.name!r} has unknown nodes "
                    f"{sorted(zone.nodes - members)}"
                )
        for tenant in self.tenants:
            if not tenant.nodes <= members:
                raise ConfigurationError(
                    f"spec {self.name}: tenant {tenant.name!r} has unknown "
                    f"nodes {sorted(tenant.nodes - members)}"
                )

    # ------------------------------------------------------------------
    def neighbors(self, node: Address) -> frozenset[Address]:
        """Peers ``node`` can currently send to (live out-edges)."""
        return frozenset(b for a, b in self.edges if a == node)

    def fib_of(self, node: Address) -> dict[Address, Address]:
        """The installed FIB of ``node`` (empty when none installed)."""
        return dict(self.fibs.get(node, {}))

    def deliverable(self) -> IntervalSet:
        """The address space that *should* be reachable: all node addresses."""
        return IntervalSet.of(*self.nodes)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any], name: str = "") -> "FlowSpec":
        """Build from the JSON shape (see ``tests/flow/fixtures`` for
        examples); ``edges`` entries are undirected pairs."""
        try:
            nodes = tuple(int(n) for n in data["nodes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"flow spec: bad 'nodes': {exc}") from exc
        directed: set[tuple[Address, Address]] = set()
        for pair in data.get("edges", []):
            if len(pair) != 2:
                raise ConfigurationError(f"flow spec: bad edge {pair!r}")
            a, b = int(pair[0]), int(pair[1])
            directed.add((a, b))
            directed.add((b, a))
        fibs = {
            int(node): {int(d): int(nh) for d, nh in table.items()}
            for node, table in data.get("fibs", {}).items()
        }
        zones = tuple(
            Zone(
                name=z["name"],
                nodes=frozenset(int(n) for n in z["nodes"]),
                space=(
                    _spans(z["space"], f"zone {z['name']!r} space")
                    if "space" in z
                    else IntervalSet.of(*(int(n) for n in z["nodes"]))
                ),
            )
            for z in data.get("zones", [])
        )
        tenants = tuple(
            Tenant(
                name=t["name"],
                nodes=frozenset(int(n) for n in t["nodes"]),
                space=(
                    _spans(t["space"], f"tenant {t['name']!r} space")
                    if "space" in t
                    else IntervalSet.of(*(int(n) for n in t["nodes"]))
                ),
            )
            for t in data.get("tenants", [])
        )
        return cls(
            name=data.get("name", name or "spec"),
            nodes=nodes,
            edges=frozenset(directed),
            fibs=fibs,
            zones=zones,
            tenants=tenants,
            ttl=int(data.get("ttl", DEFAULT_TTL)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "FlowSpec":
        """Load a JSON spec file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load flow spec {path}: {exc}") from exc
        return cls.from_dict(data, name=path.stem)

    @classmethod
    def from_topology(cls, topology: Any, name: str = "", **annotations: Any) -> "FlowSpec":
        """Snapshot a live :class:`~repro.network.topology.Topology`.

        Reads the topology's :meth:`flow_spec` export (installed FIBs,
        alive links) — the analysis then runs with no further contact
        with the simulation.  ``annotations`` may add ``zones`` /
        ``tenants`` / ``ttl`` in the JSON shape.
        """
        data = dict(topology.flow_spec())
        data.update(annotations)
        if name:
            data["name"] = name
        return cls.from_dict(data)

    def as_dict(self) -> dict[str, Any]:
        """Canonical JSON form (sorted, undirected edge list)."""
        undirected = sorted(
            {(min(a, b), max(a, b)) for a, b in self.edges}
        )
        return {
            "name": self.name,
            "nodes": sorted(self.nodes),
            "edges": [list(pair) for pair in undirected],
            "fibs": {
                str(node): {
                    str(dst): self.fibs[node][dst]
                    for dst in sorted(self.fibs[node])
                }
                for node in sorted(self.fibs)
            },
            "zones": [z.as_dict() for z in self.zones],
            "tenants": [t.as_dict() for t in self.tenants],
            "ttl": self.ttl,
        }


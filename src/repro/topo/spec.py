"""Fleet topology declaration: generators, partitioning, oracle FIBs.

A :class:`FleetSpec` is a frozen, hashable description of a routed
fleet — node set, edge set, link delay, region partition, seed.  Every
derived structure here (interface numbering, BFS distances, oracle
next hops, region assignment) is a **pure function of the spec**, so
the serial conductor, each sharded region, and any test can
recompute it independently and agree bit-for-bit without exchanging
state.

Generators produce the canonical shapes of the scale experiments:
star, ring, grid, fat-tree, and seeded random graphs, from a handful
of nodes up to thousands.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from ..core.errors import ConfigurationError
from ..sim.rng import derive_seed

#: Generator names accepted by :func:`make_spec` and the CLI.
KINDS = ("star", "ring", "grid", "fat-tree", "random")

Edge = tuple[int, int]


@dataclass(frozen=True)
class FleetSpec:
    """An immutable fleet description; every derived map is pure."""

    name: str
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    regions: tuple[tuple[int, ...], ...]
    link_delay: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate shape invariants once; everything downstream trusts them."""
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ConfigurationError("duplicate node addresses in spec")
        for a, b in self.edges:
            if a >= b:
                raise ConfigurationError(f"edge ({a}, {b}) not normalized a < b")
            if a not in node_set or b not in node_set:
                raise ConfigurationError(f"edge ({a}, {b}) references unknown node")
        covered = [n for region in self.regions for n in region]
        if sorted(covered) != sorted(self.nodes):
            raise ConfigurationError("regions are not a partition of the nodes")
        if self.link_delay <= 0:
            raise ConfigurationError("link_delay must be positive")

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of regions in the partition."""
        return len(self.regions)

    def region_of(self, node: int) -> int:
        """The region index a node belongs to."""
        return _region_map(self)[node]

    def cross_edges(self) -> list[Edge]:
        """Edges whose endpoints live in different regions."""
        rmap = _region_map(self)
        return [(a, b) for a, b in self.edges if rmap[a] != rmap[b]]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def star(n: int) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """Node 1 is the hub; 2..n are leaves."""
    if n < 2:
        raise ConfigurationError("star needs >= 2 nodes")
    nodes = tuple(range(1, n + 1))
    return nodes, tuple((1, leaf) for leaf in range(2, n + 1))


def ring(n: int) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """A cycle 1-2-…-n-1."""
    if n < 3:
        raise ConfigurationError("ring needs >= 3 nodes")
    nodes = tuple(range(1, n + 1))
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((1, n))
    return nodes, tuple(sorted(edges))


def grid(rows: int, cols: int) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """A rows x cols mesh, row-major addressing from 1."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ConfigurationError("grid needs >= 2 nodes")
    def addr(r: int, c: int) -> int:
        return r * cols + c + 1

    nodes = tuple(range(1, rows * cols + 1))
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((addr(r, c), addr(r, c + 1)))
            if r + 1 < rows:
                edges.append((addr(r, c), addr(r + 1, c)))
    return nodes, tuple(sorted(edges))


def fat_tree(k: int) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """A k-ary fat tree: (k/2)^2 core, k pods of k/2 + k/2 switches,
    (k^3)/4 hosts.  Addresses are assigned core, then per-pod
    aggregation/edge, then hosts — contiguous and deterministic."""
    if k < 2 or k % 2:
        raise ConfigurationError("fat-tree needs even k >= 2")
    half = k // 2
    counter = 1

    def take(count: int) -> list[int]:
        nonlocal counter
        block = list(range(counter, counter + count))
        counter += count
        return block

    core = take(half * half)
    edges: list[Edge] = []
    hosts: list[int] = []
    aggs: list[list[int]] = []
    eds: list[list[int]] = []
    for _pod in range(k):
        agg = take(half)
        edge_sw = take(half)
        aggs.append(agg)
        eds.append(edge_sw)
        for i, a in enumerate(agg):
            # Aggregation switch i of every pod uplinks to core block i.
            for c in core[i * half : (i + 1) * half]:
                edges.append((min(a, c), max(a, c)))
            for e in edge_sw:
                edges.append((min(a, e), max(a, e)))
    for pod in range(k):
        for e in eds[pod]:
            for h in take(half):
                hosts.append(h)
                edges.append((min(e, h), max(e, h)))
    nodes = tuple(range(1, counter))
    return nodes, tuple(sorted(set(edges)))


def random_graph(
    n: int, degree: int, seed: int
) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """A connected seeded random graph: a ring backbone (connectivity)
    plus extra edges until the average degree reaches ``degree``."""
    if n < 3:
        raise ConfigurationError("random graph needs >= 3 nodes")
    nodes, edges = ring(n)
    present = set(edges)
    rng = random.Random(derive_seed(seed, f"random-graph:{n}:{degree}"))
    want = max(len(present), (n * degree) // 2)
    attempts = 0
    while len(present) < want and attempts < 20 * want:
        attempts += 1
        a = rng.randrange(1, n + 1)
        b = rng.randrange(1, n + 1)
        if a == b:
            continue
        present.add((min(a, b), max(a, b)))
    return nodes, tuple(sorted(present))


def make_spec(
    kind: str,
    nodes: int,
    shards: int = 1,
    seed: int = 0,
    link_delay: float = 0.005,
    degree: int = 4,
) -> FleetSpec:
    """Build a named generator's spec at roughly ``nodes`` nodes.

    ``grid`` rounds to the nearest rows x cols factorization;
    ``fat-tree`` picks the smallest even k whose tree reaches the
    request (so the exact node count may differ from ``nodes``).
    """
    if kind == "star":
        node_tuple, edges = star(nodes)
    elif kind == "ring":
        node_tuple, edges = ring(nodes)
    elif kind == "grid":
        rows = max(1, int(nodes**0.5))
        while nodes % rows:
            rows -= 1
        node_tuple, edges = grid(rows, nodes // rows)
    elif kind == "fat-tree":
        k = 2
        while k**3 // 4 + 5 * k * k // 4 < nodes:
            k += 2
        node_tuple, edges = fat_tree(k)
    elif kind == "random":
        node_tuple, edges = random_graph(nodes, degree, seed)
    else:
        raise ConfigurationError(f"unknown topology kind {kind!r}; one of {KINDS}")
    return FleetSpec(
        name=f"{kind}-{len(node_tuple)}",
        nodes=node_tuple,
        edges=edges,
        regions=assign_regions(node_tuple, edges, shards),
        link_delay=link_delay,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Partitioning and pure derived maps
# ----------------------------------------------------------------------
def adjacency(
    nodes: tuple[int, ...], edges: tuple[Edge, ...]
) -> dict[int, list[int]]:
    """Neighbor lists, each sorted ascending (the interface order)."""
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return {n: sorted(peers) for n, peers in adj.items()}


def assign_regions(
    nodes: tuple[int, ...], edges: tuple[Edge, ...], shards: int
) -> tuple[tuple[int, ...], ...]:
    """Slice the graph into ``shards`` contiguous regions.

    Deterministic BFS from the lowest unvisited address, emitting nodes
    in visit order and cutting every ``ceil(n / shards)`` nodes — a
    locality-preserving partition (BFS keeps neighborhoods together)
    that any process can recompute from the spec alone.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    shards = min(shards, len(nodes))
    adj = adjacency(nodes, edges)
    order: list[int] = []
    seen: set[int] = set()
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            node = queue.popleft()
            order.append(node)
            for peer in adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
    per = -(-len(order) // shards)  # ceil
    regions = [
        tuple(sorted(order[i : i + per])) for i in range(0, len(order), per)
    ]
    while len(regions) < shards:
        regions.append(())
    return tuple(regions)


@lru_cache(maxsize=64)
def _region_map(spec: FleetSpec) -> dict[int, int]:
    return {
        node: index
        for index, region in enumerate(spec.regions)
        for node in region
    }


@lru_cache(maxsize=64)
def iface_index(spec: FleetSpec) -> dict[tuple[int, int], int]:
    """``(node, peer) -> interface index``: each node numbers its
    neighbors in ascending address order.  Both endpoint regions derive
    the same numbering because it depends only on the spec."""
    table: dict[tuple[int, int], int] = {}
    for node, peers in adjacency(spec.nodes, spec.edges).items():
        for index, peer in enumerate(peers):
            table[(node, peer)] = index
    return table


def bfs_distances(spec: FleetSpec, source: int) -> dict[int, int]:
    """Hop counts from ``source`` over the full graph."""
    adj = adjacency(spec.nodes, spec.edges)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for peer in adj[node]:
            if peer not in dist:
                dist[peer] = dist[node] + 1
                queue.append(peer)
    return dist


@lru_cache(maxsize=16)
def static_fibs(spec: FleetSpec) -> dict[int, dict[int, int]]:
    """Oracle FIBs: shortest-path next hops with lowest-address
    tie-break, per node.  One reverse-BFS per destination, so the cost
    is O(nodes * edges) — computed once per spec."""
    adj = adjacency(spec.nodes, spec.edges)
    fibs: dict[int, dict[int, int]] = {n: {} for n in spec.nodes}
    for dst in spec.nodes:
        dist = bfs_distances(spec, dst)
        for node in spec.nodes:
            if node == dst or node not in dist:
                continue
            # The next hop is the lowest-address neighbor strictly
            # closer to dst; BFS layers guarantee one exists.
            for peer in adj[node]:
                if dist.get(peer, 1 << 30) == dist[node] - 1:
                    fibs[node][dst] = peer
                    break
    return fibs


def flow_spec(spec: FleetSpec, ttl: int = 32) -> dict:
    """The fleet's oracle forwarding state in the declarative flow-spec
    shape (:meth:`repro.flow.spec.FlowSpec.from_dict`), so generated
    topologies feed straight into the T4/T5 symbolic analyzer."""
    return {
        "name": spec.name,
        "nodes": sorted(spec.nodes),
        "edges": [list(edge) for edge in sorted(spec.edges)],
        "fibs": {
            str(node): {str(dst): hop for dst, hop in sorted(fib.items())}
            for node, fib in sorted(static_fibs(spec).items())
        },
        "zones": [],
        "tenants": [],
        "ttl": ttl,
    }


def link_id(spec: FleetSpec, src: int, dst: int) -> int:
    """A globally unique id per *direction* of an edge, derived from
    the sorted edge list — the stable stream id inside delivery ranks."""
    key = (min(src, dst), max(src, dst))
    index = _edge_index(spec)[key]
    return index * 2 + (0 if src < dst else 1)


@lru_cache(maxsize=64)
def _edge_index(spec: FleetSpec) -> dict[Edge, int]:
    return {edge: index for index, edge in enumerate(spec.edges)}

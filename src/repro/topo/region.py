"""One region of a fleet: routers, channels, and local artifacts.

A :class:`RegionWorld` owns the routers of one partition region, every
outbound :class:`~repro.topo.links.FleetChannel` (the direction whose
source lives here), and the region's artifact streams: the delivery
log (execution order), the span list, and a private
:class:`~repro.obs.MetricsRegistry`.

The same class serves both execution modes.  Serially, every region
shares one :class:`~repro.sim.Simulator` and cross-region sends are
scheduled straight into the destination world; sharded, each region
has its own simulator and cross-region sends land in an outbox the
conductor drains at window boundaries.  Because artifacts are kept
per region in *both* modes, the byte-identical serial-vs-sharded
comparison reduces to event-execution order — which the delivery
ranks pin down (see :mod:`repro.topo.links`).
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.instrument import acting_as
from ..network.neighbor import NeighborEntry
from ..network.packets import DataPacket
from ..network.router import Router
from ..network.routing.link_state import LinkState
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Rank, Simulator
from .links import Delivery, FleetChannel
from .spec import FleetSpec, adjacency, bfs_distances, iface_index, link_id, static_fibs
from .traffic import Flow

#: Routing modes: ``static`` pre-installs oracle FIBs and neighbor
#: tables (no control traffic — the scale/benchmark mode); ``protocol``
#: runs hellos + LSP flooding to convergence (the fidelity mode).
ROUTING_MODES = ("static", "protocol")

#: One cross-region delivery in flight: (arrival, rank, dst, packet).
CrossEntry = Delivery


class RegionWorld:
    """The routers and links of one region, plus its artifact streams."""

    def __init__(
        self,
        spec: FleetSpec,
        region_id: int,
        sim: Simulator,
        routing: str = "static",
        cross_sink: Callable[[CrossEntry], None] | None = None,
        hello_interval: float = 1.0,
        dead_interval: float = 3.5,
    ):
        self.spec = spec
        self.region_id = region_id
        self.sim = sim
        self.routing = routing
        self.registry = MetricsRegistry()
        self.deliveries: list[dict[str, Any]] = []
        self.spans: list[dict[str, Any]] = []
        self.routers: dict[int, Router] = {}
        self.channels: dict[tuple[int, int], FleetChannel] = {}
        self.outbox: list[CrossEntry] = []
        self._cross_sink = cross_sink if cross_sink is not None else self.outbox.append
        self._members = set(spec.regions[region_id])
        self._ifaces = iface_index(spec)
        self._adjacency = adjacency(spec.nodes, spec.edges)

        for node in sorted(self._members):
            router = Router(
                node,
                sim.clock(),
                routing_cls=LinkState,
                hello_interval=hello_interval,
                dead_interval=dead_interval,
                metrics=self.registry,
            )
            router.on_deliver = self._record_delivery
            self.routers[node] = router
        # Interfaces in ascending-neighbor order so every region agrees
        # with iface_index(); channels for every direction sourced here.
        for node in sorted(self._members):
            router = self.routers[node]
            for peer in self._adjacency[node]:
                interface = router.add_interface()
                assert interface.index == self._ifaces[(node, peer)]
                channel = FleetChannel(
                    src=node,
                    dst=peer,
                    delay=spec.link_delay,
                    link_id=link_id(spec, node, peer),
                    now=lambda: self.sim.now,
                    sink=(
                        self._local_sink
                        if peer in self._members
                        else self._cross_sink
                    ),
                    metrics=self.registry,
                )
                interface.send = channel.send
                self.channels[(node, peer)] = channel
        if routing == "static":
            self._install_static_state()
        elif routing != "protocol":
            raise ValueError(f"routing must be one of {ROUTING_MODES}")

    def start_routing(self) -> None:
        """Start hello/LSP machinery (protocol mode only).

        Deliberately separate from construction: the first hellos go
        out synchronously, so in serial mode every region's world must
        exist before any router starts.
        """
        if self.routing == "protocol":
            for node in sorted(self._members):
                self.routers[node].start()

    # ------------------------------------------------------------------
    def _install_static_state(self) -> None:
        fibs = static_fibs(self.spec)
        for node in sorted(self._members):
            router = self.routers[node]
            entries = {
                peer: NeighborEntry(
                    address=peer,
                    interface=self._ifaces[(node, peer)],
                    last_heard=0.0,
                )
                for peer in self._adjacency[node]
            }
            with acting_as("neighbor"):
                router.neighbor.state.entries = entries
            with acting_as("forwarding"):
                router.forwarding.install(fibs[node])

    # ------------------------------------------------------------------
    # Delivery paths
    # ------------------------------------------------------------------
    def _local_sink(self, entry: CrossEntry) -> None:
        arrival, rank, dst, packet = entry
        self.sim.schedule_at(
            arrival, lambda: self._receive(rank, dst, packet), rank=rank
        )

    def inject(self, entries: list[CrossEntry]) -> None:
        """Schedule cross-region deliveries handed over by the conductor."""
        for entry in entries:
            self._local_sink(entry)

    def _receive(self, rank: Rank, dst: int, packet: Any) -> None:
        # The rank's stream id is the directed link id; decode the
        # sender to find the receiving interface — both endpoint
        # regions derive the same numbering from the spec alone.
        edge = self.spec.edges[rank[2] // 2]
        src = edge[0] if rank[2] % 2 == 0 else edge[1]
        self.routers[dst].receive(packet, self._ifaces[(dst, src)])

    def drain_outbox(self) -> list[CrossEntry]:
        """Hand the accumulated cross-region sends to the conductor."""
        # Drain in place: channel sinks hold a bound append to this
        # exact list, so rebinding self.outbox would orphan them.
        entries = list(self.outbox)
        self.outbox.clear()
        return entries

    def _record_delivery(self, packet: DataPacket) -> None:
        t = self.sim.now
        record = {
            "t": t,
            "src": packet.src,
            "dst": packet.dst,
            "ident": packet.header["ident"],
        }
        self.deliveries.append(record)
        self.spans.append(
            {
                "sid": len(self.spans),
                "stack": f"region{self.region_id}",
                "direction": "up",
                "caller": "fleet",
                "actor": f"node:{packet.dst}",
                "t0": t,
                "t1": t,
                "w0": 0.0,
                "w1": 0.0,
                "pdu": f"{packet.src}->{packet.dst}#{packet.header['ident']}",
            }
        )

    # ------------------------------------------------------------------
    # Traffic and faults
    # ------------------------------------------------------------------
    def schedule_traffic(self, flows: list[Flow]) -> int:
        """Schedule this region's share of the plan (flows sourced here)."""
        scheduled = 0
        for flow in flows:
            if flow.src not in self._members:
                continue
            for k in range(flow.packets):
                self.sim.schedule_at(
                    flow.start + k * flow.interval,
                    self._sender(flow, k),
                )
                scheduled += 1
        return scheduled

    def _sender(self, flow: Flow, k: int) -> Callable[[], None]:
        # TTL must cover any simple path in the fleet (a 32x32 grid has
        # 62-hop shortest paths); n+1 does, and is a pure spec function.
        ttl = len(self.spec.nodes) + 1

        def send() -> None:
            self.routers[flow.src].send_data(
                flow.dst, payload=b"", ident=flow.ident(k), ttl=ttl
            )

        return send

    def set_link_alive(self, a: int, b: int, alive: bool) -> None:
        """Cut or restore the directions of edge (a, b) sourced here."""
        for key in ((a, b), (b, a)):
            channel = self.channels.get(key)
            if channel is not None:
                channel.alive = alive

    def schedule_link_change(self, t: float, a: int, b: int, alive: bool) -> None:
        """Schedule a cut/restore of edge (a, b) at virtual time ``t``."""
        self.sim.schedule_at(t, lambda: self.set_link_alive(a, b, alive))

    # ------------------------------------------------------------------
    # Convergence oracle (protocol mode)
    # ------------------------------------------------------------------
    def routes_correct(self) -> bool:
        """Every local FIB reaches every reachable node along shortest
        paths of the full graph — checkable locally because distances
        are a pure function of the spec."""
        fibs = {
            node: self.routers[node].forwarding.fib()
            for node in sorted(self._members)
        }
        for dst in self.spec.nodes:
            dist = bfs_distances(self.spec, dst)
            for node, fib in fibs.items():
                if dst == node or node not in dist:
                    continue
                hop = fib.get(dst)
                if hop is None:
                    return False
                if dist.get(hop, 1 << 30) != dist[node] - 1:
                    return False
        return True

    # ------------------------------------------------------------------
    def result(self) -> dict[str, Any]:
        """This region's picklable artifact bundle."""
        return {
            "region": self.region_id,
            "deliveries": self.deliveries,
            "spans": self.spans,
            "snapshot": self.registry.snapshot(),
            "events": self.sim.events_processed,
        }

"""Forwarding — the data-plane sublayer on top (Fig 3/4).

"The path of a data packet passes directly from forwarding to the next
hop Data Link.  However, the forwarding database is itself built using
routing."  The FIB here is exactly that database: route computation
pushes ``{destination: next_hop}`` maps in through
:meth:`ForwardingSublayer.install`, and the per-packet fast path reads
only the FIB — never the routing tables, never the neighbor state
(T3).  Next-hop-to-interface resolution is control information that
flows in from neighbor determination at install time, mirroring the
dashed control arrows of Fig 3 that bypass intermediate sublayers.
"""

from __future__ import annotations

from typing import Callable

from ..core.instrument import AccessLog, InstrumentedState
from ..core.metrics import MetricsSink, scoped
from .packets import Address, DataPacket

#: Metric aliases shared with the symbolic flow analyzer: the runtime
#: counter and the static drop kind carry the same name, so a
#: :meth:`~repro.flow.transfer.NodeTransfer.decide` fate and a
#: ``forwarding/<addr>/...`` counter are directly comparable.
TTL_EXPIRED = "ttl_expired"
NO_ROUTE = "no_route"


class ForwardingSublayer:
    """FIB lookup, TTL handling, local delivery."""

    def __init__(
        self,
        address: Address,
        send_on_interface: Callable[[int, DataPacket], None],
        resolve_interface: Callable[[Address], int | None],
        access_log: AccessLog | None = None,
        metrics: MetricsSink | None = None,
    ):
        self.address = address
        self._send = send_on_interface
        self._resolve_interface = resolve_interface
        # Scope our own names (the sim.link pattern): callers hand in the
        # raw sink and counters land at ``forwarding/<addr>/...``.
        self.metrics = scoped(metrics, f"forwarding/{address}")
        self.state = InstrumentedState(
            "forwarding",
            log=access_log,
            fib={},
            forwarded=0,
            delivered=0,
            dropped_no_route=0,
            dropped_ttl=0,
            dropped_no_interface=0,
        )
        self.on_deliver: Callable[[DataPacket], None] | None = None

    #: Drops that dual-count under the flow analyzer's drop-kind names.
    _ALIASES = {"dropped_ttl": TTL_EXPIRED, "dropped_no_route": NO_ROUTE}

    def _count(self, field: str) -> None:
        """State counter + metrics mirror (same pattern as Sublayer.count)."""
        setattr(self.state, field, getattr(self.state, field) + 1)
        self.metrics.inc(field)
        alias = self._ALIASES.get(field)
        if alias is not None:
            self.metrics.inc(alias)

    # ------------------------------------------------------------------
    def install(self, routes: dict[Address, Address]) -> None:
        """The narrow downward-facing interface from route computation."""
        self.state.fib = dict(routes)

    def fib(self) -> dict[Address, Address]:
        return dict(self.state.fib)

    # ------------------------------------------------------------------
    def forward(self, packet: DataPacket) -> None:
        """The per-packet fast path."""
        if packet.dst == self.address:
            self._count("delivered")
            if self.on_deliver is not None:
                self.on_deliver(packet)
            return
        next_hop = self.state.fib.get(packet.dst)
        if next_hop is None:
            self._count("dropped_no_route")
            return
        if packet.ttl <= 1:
            self._count("dropped_ttl")
            return
        interface = self._resolve_interface(next_hop)
        if interface is None:
            self._count("dropped_no_interface")
            return
        self._count("forwarded")
        self._send(interface, packet.decremented())

    def originate(self, packet: DataPacket) -> None:
        """Send a locally-generated packet (no TTL decrement at source)."""
        if packet.dst == self.address:
            self._count("delivered")
            if self.on_deliver is not None:
                self.on_deliver(packet)
            return
        next_hop = self.state.fib.get(packet.dst)
        if next_hop is None:
            self._count("dropped_no_route")
            return
        interface = self._resolve_interface(next_hop)
        if interface is None:
            self._count("dropped_no_interface")
            return
        self._count("forwarded")
        self._send(interface, packet)

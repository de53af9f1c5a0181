"""Per-node forwarding decisions, extracted from forwarding semantics.

Each :class:`NodeTransfer` is the static mirror of one
:class:`~repro.network.forwarding.ForwardingSublayer`: the same
branch structure — deliver-local, FIB lookup, TTL check, next-hop
interface resolution — decided for one packet's ``(dst, ttl)``.  The
branches are *exactly* the runtime ones (``tests/flow/test_transfer.py``
cross-validates decisions against a concrete ``ForwardingSublayer``
packet by packet), so a verdict is a statement about the shipped code,
not about a re-implementation.  Destination classes
(:mod:`repro.flow.reach`) make one decision stand for a whole set of
destinations: inside a class every node decides identically.

The fates carry the runtime metric names (``ttl_expired`` /
``no_route`` / ``no_interface``) so flow-analysis verdicts can be
cross-checked against the counters the sublayer dual-counts into its
:class:`~repro.core.metrics.MetricsSink`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..network.packets import Address
from .sets import IntervalSet
from .spec import FlowSpec

#: Drop kinds, named after the forwarding sublayer's runtime counters.
DROP_TTL = "ttl_expired"
DROP_NO_ROUTE = "no_route"
DROP_NO_INTERFACE = "no_interface"
#: The two fates that are not drops.
DELIVERED = "delivered"
FORWARDED = "forwarded"


#: One packet's fate at one node: ``(fate, next_hop, outgoing ttl)``;
#: the next hop and TTL are ``None`` unless the fate is :data:`FORWARDED`.
Decision = tuple[str, Address | None, int | None]


class NodeTransfer:
    """The forwarding sublayer of one node as a decision function."""

    def __init__(self, spec: FlowSpec, address: Address):
        """Read ``address``'s installed FIB and live neighbours from ``spec``."""
        self.address = address
        self.fib = spec.fib_of(address)
        #: Next hops the node can actually reach (live adjacency) —
        #: the static mirror of ``resolve_interface`` returning None.
        self.neighbors = spec.neighbors(address)
        by_hop: dict[Address, list[Address]] = {}
        for dst, next_hop in self.fib.items():
            by_hop.setdefault(next_hop, []).append(dst)
        #: dst values grouped by the FIB's chosen next hop.
        self.groups: dict[Address, IntervalSet] = {
            next_hop: IntervalSet.of(*dsts) for next_hop, dsts in by_hop.items()
        }

    def decide(self, dst: Address, ttl: int, originate: bool = False) -> Decision:
        """One packet's fate, branch for branch ``ForwardingSublayer.forward``.

        With ``originate=True`` the TTL branch is skipped and nothing is
        decremented — the semantics of locally-generated packets
        (``ForwardingSublayer.originate``).
        """
        if dst == self.address:
            return (DELIVERED, None, None)
        next_hop = self.fib.get(dst)
        if next_hop is None:
            return (DROP_NO_ROUTE, None, None)
        if not originate and ttl <= 1:
            return (DROP_TTL, None, None)
        if next_hop not in self.neighbors:
            return (DROP_NO_INTERFACE, None, None)
        return (FORWARDED, next_hop, ttl if originate else ttl - 1)


@dataclass
class TransferGraph:
    """All node transfers of a spec, built once per analysis."""

    spec: FlowSpec
    transfers: dict[Address, NodeTransfer] = field(default_factory=dict)

    @property
    def nodes(self) -> tuple[Address, ...]:
        """The spec's nodes, in declaration order."""
        return self.spec.nodes

    def at(self, node: Address) -> NodeTransfer:
        """The transfer function of ``node``."""
        return self.transfers[node]


def build_transfers(spec: FlowSpec) -> TransferGraph:
    """Extract a :class:`NodeTransfer` per node from the spec's FIBs."""
    graph = TransferGraph(spec=spec)
    for node in spec.nodes:
        graph.transfers[node] = NodeTransfer(spec, node)
    return graph

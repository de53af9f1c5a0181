"""NodeTransfer mirrors ForwardingSublayer.forward branch-for-branch.

The cross-validation harness drives both the concrete sublayer and the
static decision with the same packets and asserts identical fates —
the guarantee that lets a static verdict speak for the runtime.
"""

import pytest

from repro.flow.spec import FlowSpec
from repro.flow.transfer import (
    DELIVERED,
    DROP_NO_INTERFACE,
    DROP_NO_ROUTE,
    DROP_TTL,
    FORWARDED,
    NodeTransfer,
    build_transfers,
)
from repro.network.forwarding import ForwardingSublayer
from repro.network.packets import DataPacket

SPEC = FlowSpec.from_dict(
    {
        "name": "xval",
        "nodes": [1, 2, 3, 4],
        "edges": [[1, 2], [1, 3]],
        # 4 is routed but unreachable (no live edge), 9 is no node at all.
        "fibs": {"1": {"2": 2, "3": 3, "4": 4}},
    }
)


def concrete_fate(
    packet: DataPacket, originate: bool = False
) -> tuple[str, int | None, int | None]:
    """(fate, next_hop, out_ttl) from a real ForwardingSublayer."""
    sent: list[tuple[int, DataPacket]] = []
    interfaces = {2: 0, 3: 1}  # next_hop -> interface, 4 unresolvable
    sublayer = ForwardingSublayer(
        address=1,
        send_on_interface=lambda i, p: sent.append((i, p)),
        resolve_interface=lambda nh: interfaces.get(nh),
    )
    sublayer.install({2: 2, 3: 3, 4: 4})
    delivered: list[DataPacket] = []
    sublayer.on_deliver = delivered.append
    if originate:
        sublayer.originate(packet)
    else:
        sublayer.forward(packet)
    if delivered:
        return (DELIVERED, None, None)
    if sent:
        interface, out = sent[0]
        next_hop = {0: 2, 1: 3}[interface]
        return (FORWARDED, next_hop, out.ttl)
    state = sublayer.state
    for fate, counter in (
        (DROP_NO_ROUTE, state.dropped_no_route),
        (DROP_TTL, state.dropped_ttl),
        (DROP_NO_INTERFACE, state.dropped_no_interface),
    ):
        if counter:
            return (fate, None, None)
    raise AssertionError("packet vanished")


def static_fate(
    packet: DataPacket, originate: bool = False
) -> tuple[str, int | None, int | None]:
    """The same classification from the node's static decision."""
    transfer = NodeTransfer(SPEC, 1)
    return transfer.decide(packet.dst, packet.ttl, originate)


CASES = [
    DataPacket.make(src=2, dst=1, payload=b""),  # delivered (dst == self)
    DataPacket.make(src=2, dst=3, payload=b""),  # forwarded to 3
    DataPacket.make(src=3, dst=2, payload=b"", ttl=2),  # forwarded, ttl 2->1
    DataPacket.make(src=2, dst=99, payload=b""),  # no route
    DataPacket.make(src=2, dst=3, payload=b"", ttl=1),  # ttl expiry
    DataPacket.make(src=2, dst=4, payload=b""),  # no interface for hop 4
    DataPacket.make(src=2, dst=1, payload=b"", ttl=1),  # deliver beats ttl
]


@pytest.mark.parametrize("packet", CASES, ids=lambda p: f"dst{p.dst}ttl{p.ttl}")
def test_symbolic_matches_concrete(packet):
    assert static_fate(packet) == concrete_fate(packet)


@pytest.mark.parametrize("packet", CASES, ids=lambda p: f"dst{p.dst}ttl{p.ttl}")
def test_origination_matches_concrete(packet):
    assert static_fate(packet, originate=True) == concrete_fate(
        packet, originate=True
    )


def test_originate_skips_ttl_check_and_decrement():
    transfer = NodeTransfer(SPEC, 1)
    # not decremented, not expired
    assert transfer.decide(3, 1, originate=True) == (FORWARDED, 3, 1)


def test_exhaustive_sweep_over_small_universe():
    """Every (dst, ttl) pair in a reduced universe agrees end to end."""
    for dst in [1, 2, 3, 4, 50]:
        for ttl in [1, 2, 31]:
            packet = DataPacket.make(src=2, dst=dst, payload=b"", ttl=ttl)
            for originate in (False, True):
                assert static_fate(packet, originate) == concrete_fate(
                    packet, originate
                ), (dst, ttl, originate)


def test_transfer_graph_covers_every_node():
    graph = build_transfers(SPEC)
    for node in SPEC.nodes:
        assert graph.at(node).address == node

"""Symbolic verdicts against the live data plane.

The analyzer claims to predict the runtime: a packet the static
decision drops must bump the matching
``forwarding/<addr>/...`` counter when actually sent, and the counter
names must equal the symbolic drop kinds (the satellite's dual-count
contract).
"""

from repro.flow.spec import FlowSpec
from repro.flow.transfer import DROP_NO_ROUTE, DROP_TTL, NodeTransfer
from repro.network.forwarding import NO_ROUTE, TTL_EXPIRED
from repro.network.packets import DataPacket
from repro.network.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


def converged_line(metrics: MetricsRegistry | None = None) -> Topology:
    sim = Simulator()
    kwargs = {"metrics": metrics} if metrics is not None else {}
    topo = Topology.build(sim, [(1, 2), (2, 3)], **kwargs)
    topo.start()
    assert topo.converge() is not None
    return topo


def test_drop_kind_names_match_the_runtime_metric_names():
    assert DROP_TTL == TTL_EXPIRED == "ttl_expired"
    assert DROP_NO_ROUTE == NO_ROUTE == "no_route"


def test_predicted_no_route_drop_bumps_the_counter():
    registry = MetricsRegistry()
    topo = converged_line(registry)
    spec = FlowSpec.from_topology(topo)
    packet = DataPacket.make(src=2, dst=999, payload=b"")

    fate, _, _ = NodeTransfer(spec, 1).decide(packet.dst, packet.ttl)
    assert fate == DROP_NO_ROUTE  # the prediction

    before = registry.counter("forwarding/1/no_route")
    topo.routers[1].forwarding.forward(packet)
    assert registry.counter("forwarding/1/no_route") == before + 1
    # the pre-existing counter moves in lockstep
    assert registry.counter("forwarding/1/dropped_no_route") == before + 1


def test_predicted_ttl_expiry_bumps_the_counter():
    registry = MetricsRegistry()
    topo = converged_line(registry)
    spec = FlowSpec.from_topology(topo)
    packet = DataPacket.make(src=1, dst=3, payload=b"", ttl=1)

    fate, _, _ = NodeTransfer(spec, 2).decide(packet.dst, packet.ttl)
    assert fate == DROP_TTL  # the prediction

    topo.routers[2].forwarding.forward(packet)
    assert registry.counter("forwarding/2/ttl_expired") == 1
    assert registry.counter("forwarding/2/dropped_ttl") == 1


def test_forwarded_traffic_does_not_touch_drop_counters():
    registry = MetricsRegistry()
    topo = converged_line(registry)
    topo.routers[2].forwarding.forward(
        DataPacket.make(src=1, dst=3, payload=b"")
    )
    assert registry.counter("forwarding/2/forwarded") == 1
    assert registry.counter("forwarding/2/ttl_expired") == 0
    assert registry.counter("forwarding/2/no_route") == 0


def test_unmetered_sublayer_still_forwards():
    topo = converged_line(None)
    topo.routers[1].forwarding.forward(
        DataPacket.make(src=3, dst=99, payload=b"")
    )
    assert topo.routers[1].forwarding.state.dropped_no_route == 1

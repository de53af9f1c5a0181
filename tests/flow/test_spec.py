"""FlowSpec loading, validation, topology snapshot."""

import pytest

from repro.core.errors import ConfigurationError
from repro.flow.spec import DEFAULT_TTL, FlowSpec
from repro.network.topology import Topology
from repro.sim.engine import Simulator


def line3() -> dict:
    return {
        "name": "line",
        "nodes": [1, 2, 3],
        "edges": [[1, 2], [2, 3]],
        "fibs": {
            "1": {"2": 2, "3": 2},
            "2": {"1": 1, "3": 3},
            "3": {"1": 2, "2": 2},
        },
    }


class TestFromDict:
    def test_roundtrip_through_as_dict(self):
        spec = FlowSpec.from_dict(line3())
        again = FlowSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_edges_expand_both_directions(self):
        spec = FlowSpec.from_dict(line3())
        assert (1, 2) in spec.edges and (2, 1) in spec.edges
        assert spec.neighbors(2) == frozenset({1, 3})

    def test_zone_space_defaults_to_member_addresses(self):
        data = line3()
        data["zones"] = [{"name": "z", "nodes": [1, 3]}]
        spec = FlowSpec.from_dict(data)
        assert spec.zones[0].space.intervals == ((1, 1), (3, 3))

    def test_tenant_space_override(self):
        data = line3()
        data["tenants"] = [{"name": "t", "nodes": [1], "space": [[5, 9]]}]
        spec = FlowSpec.from_dict(data)
        assert spec.tenants[0].space.intervals == ((5, 9),)

    def test_default_ttl(self):
        assert FlowSpec.from_dict(line3()).ttl == DEFAULT_TTL

    @pytest.mark.parametrize("ttl", [0, 1, 255])
    def test_ttl_inside_the_field_accepted(self, ttl):
        data = line3()
        data["ttl"] = ttl
        assert FlowSpec.from_dict(data).ttl == ttl

    @pytest.mark.parametrize("ttl", [-1, 256, 300])
    def test_ttl_outside_the_field_rejected(self, ttl):
        # A TTL the 8-bit header field cannot hold matches neither
        # forwarding branch after the first hop, so packets would vanish
        # undropped and every property would hold vacuously.
        data = line3()
        data["ttl"] = ttl
        with pytest.raises(ConfigurationError, match="ttl"):
            FlowSpec.from_dict(data)

    def test_unknown_edge_node_rejected(self):
        data = line3()
        data["edges"].append([3, 9])
        with pytest.raises(ConfigurationError):
            FlowSpec.from_dict(data)

    def test_unknown_fib_node_rejected(self):
        data = line3()
        data["fibs"]["9"] = {"1": 2}
        with pytest.raises(ConfigurationError):
            FlowSpec.from_dict(data)

    def test_unknown_zone_node_rejected(self):
        data = line3()
        data["zones"] = [{"name": "z", "nodes": [42]}]
        with pytest.raises(ConfigurationError):
            FlowSpec.from_dict(data)


class TestFixtures:
    def test_every_fixture_loads(self, fixtures):
        for path in sorted(fixtures.glob("*.json")):
            spec = FlowSpec.from_file(path)
            assert spec.name == path.stem
            assert spec.nodes

    def test_missing_file_raises(self, fixtures):
        with pytest.raises(ConfigurationError):
            FlowSpec.from_file(fixtures / "nope.json")


class TestFromTopology:
    def test_snapshot_matches_installed_fibs(self):
        sim = Simulator()
        topo = Topology.build(sim, [(1, 2), (2, 3)])
        topo.start()
        assert topo.converge() is not None
        spec = FlowSpec.from_topology(topo, name="snap")
        assert spec.name == "snap"
        assert set(spec.nodes) == {1, 2, 3}
        assert spec.fib_of(1) == topo.routers[1].forwarding.fib()

    def test_failed_links_are_absent_from_edges(self):
        sim = Simulator()
        topo = Topology.build(sim, [(1, 2), (2, 3)])
        topo.start()
        assert topo.converge() is not None
        topo.fail_link(2, 3)
        spec = FlowSpec.from_topology(topo)
        assert (2, 3) not in spec.edges and (3, 2) not in spec.edges

    def test_annotations_pass_through(self):
        sim = Simulator()
        topo = Topology.build(sim, [(1, 2)])
        topo.start()
        assert topo.converge() is not None
        spec = FlowSpec.from_topology(
            topo, zones=[{"name": "z", "nodes": [1]}], ttl=8
        )
        assert spec.zones[0].name == "z"
        assert spec.ttl == 8

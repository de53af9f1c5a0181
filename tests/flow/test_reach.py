"""Class walks: paths, deliveries, TTL expiry, classes, loop detection."""

from repro.flow.reach import destination_classes, find_loops, walk
from repro.flow.sets import IntervalSet
from repro.flow.spec import FlowSpec
from repro.flow.transfer import DELIVERED, DROP_TTL, build_transfers


def line3() -> FlowSpec:
    return FlowSpec.from_dict(
        {
            "name": "line",
            "nodes": [1, 2, 3],
            "edges": [[1, 2], [2, 3]],
            "fibs": {
                "1": {"2": 2, "3": 2},
                "2": {"1": 1, "3": 3},
                "3": {"1": 2, "2": 2},
            },
        }
    )


def looped() -> FlowSpec:
    return FlowSpec.from_dict(
        {
            "name": "loop",
            "nodes": [1, 2, 3],
            "edges": [[1, 2], [2, 3]],
            "fibs": {
                "1": {"2": 2, "3": 2},
                "2": {"1": 1, "3": 1},  # dst 3 bounces between 1 and 2
                "3": {"1": 2, "2": 2},
            },
        }
    )


def walks(spec: FlowSpec):
    graph = build_transfers(spec)
    return [
        walk(graph, src, cls)
        for cls in destination_classes(graph)
        for src in spec.nodes
    ]


class TestReachability:
    def test_every_node_delivers_everyone_elses_traffic(self):
        graph = build_transfers(line3())
        for node in (1, 2, 3):
            # each node consumes packets addressed to it from every
            # source, including the ones it originated itself
            for src in (1, 2, 3):
                path = walk(graph, src, IntervalSet.of(node))
                assert path.fate == DELIVERED
                assert path.visits[-1][0] == node

    def test_transit_traffic_is_seen_at_the_middle(self):
        path = walk(build_transfers(line3()), 1, IntervalSet.of(3))
        assert [node for node, _ in path.visits] == [1, 2, 3]

    def test_flows_follow_the_line(self):
        spec = line3()
        hops = set()
        for path in walks(spec):
            nodes = [node for node, _ in path.visits]
            hops |= set(zip(nodes, nodes[1:]))
        assert hops <= spec.edges
        assert (1, 2) in hops and (2, 3) in hops
        assert (1, 3) not in hops  # no such link

    def test_loopy_fib_terminates_via_ttl(self):
        spec = looped()
        path = walk(build_transfers(spec), 1, IntervalSet.of(3))
        assert path.fate == DROP_TTL
        # origination keeps the TTL; every later hop spends one
        assert path.visits[:3] == ((1, spec.ttl), (2, spec.ttl), (1, spec.ttl - 1))
        assert path.visits[-1][1] == 1
        assert len(path.visits) == spec.ttl + 1


class TestDestinationClasses:
    def test_partition_covers_and_separates(self):
        classes = destination_classes(build_transfers(line3()))
        total = IntervalSet.empty()
        for cls in classes:
            assert total.intersect(cls).is_empty
            total = total.union(cls)
        assert total.intervals == ((0, 0xFFFF),)

    def test_each_node_address_is_a_singleton_class(self):
        classes = destination_classes(build_transfers(line3()))
        singletons = [c.intervals for c in classes if len(c) == 1]
        for node in (1, 2, 3):
            assert ((node, node),) in singletons

    def test_fib_keys_group_by_their_next_hop_vector(self):
        spec = FlowSpec.from_dict(
            {
                "name": "keys",
                "nodes": [1, 2],
                "edges": [[1, 2]],
                "fibs": {"1": {"7": 2, "9": 2, "8": 2}, "2": {"7": 1, "9": 1}},
            }
        )
        classes = destination_classes(build_transfers(spec))
        assert [c.intervals for c in classes] == [
            ((0, 0), (3, 6), (10, 0xFFFF)),  # routed nowhere
            ((1, 1),),
            ((2, 2),),
            ((7, 7), (9, 9)),  # 1 -> 2, 2 -> 1
            ((8, 8),),  # 1 -> 2, 2 has no route
        ]


class TestFindLoops:
    def test_clean_spec_has_no_loops(self):
        graph = build_transfers(line3())
        assert find_loops(graph, destination_classes(graph)) == []

    def test_two_node_bounce_is_found_with_its_destinations(self):
        graph = build_transfers(looped())
        loops = find_loops(graph, destination_classes(graph))
        assert len(loops) == 1
        assert loops[0].cycle == (1, 2)
        assert 3 in loops[0].destinations

    def test_default_injections_pin_src_and_ttl(self):
        # Every walk starts at its ingress with the spec's TTL, and the
        # ingress is the packets' src: the data plane never rewrites it.
        spec = line3()
        graph = build_transfers(spec)
        for cls in destination_classes(graph):
            for src in spec.nodes:
                assert walk(graph, src, cls).visits[0] == (src, spec.ttl)

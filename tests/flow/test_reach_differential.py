"""The class-walk engine against a frozen copy of the cube fixpoint.

``reference_reach.reachability`` pushed symbolic packet sets through
per-node transfer functions until nothing new arrived; the live
engine walks each ingress into each destination class instead.  On
random specs — non-node FIB keys, next hops that are no neighbour,
FIB loops that only TTL expiry ends, zones, tenants — both must reach
the same verdicts at the same nodes, deliver the same number of
packets, and name the same witness packets.  The fixpoint split a
witness into cubes in arrival order, so witnesses are compared as sets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.properties import analyze
from repro.flow.reach import destination_classes
from repro.flow.sets import IntervalSet
from repro.flow.spec import FlowSpec
from repro.flow.transfer import build_transfers

from . import reference_reach as ref

#: Addresses a spec draws from: nodes come from the low part, and FIB
#: keys and zone/tenant spaces reach past every node.
ADDRESSES = range(1, 13)
KEYS = range(0, 20)


@st.composite
def specs(draw) -> FlowSpec:
    nodes = draw(st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=8, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    neighbors = {node: [] for node in nodes}
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    fibs = {}
    for node in nodes:
        # Mostly live neighbours as next hops, so paths and loops form;
        # some other nodes and some addresses that are no node at all
        # (no_interface).
        hops = [st.sampled_from(nodes), st.just(99)]
        if neighbors[node]:
            hops += [st.sampled_from(neighbors[node])] * 4
        keys = st.one_of(st.sampled_from(nodes), st.sampled_from(KEYS))
        table = draw(st.dictionaries(keys, st.one_of(hops), max_size=12))
        fibs[str(node)] = {str(dst): hop for dst, hop in table.items()}
    group = st.fixed_dictionaries(
        {"nodes": st.lists(st.sampled_from(nodes), min_size=1, unique=True)},
        optional={
            "space": st.lists(
                st.tuples(st.sampled_from(KEYS), st.integers(0, 8)).map(
                    lambda p: [p[0], p[0] + p[1]]
                ),
                max_size=2,
            )
        },
    )
    zones = draw(st.lists(group, max_size=2))
    tenants = draw(st.lists(group, max_size=3))
    for i, zone in enumerate(zones):
        zone["name"] = f"z{i}"
    for i, tenant in enumerate(tenants):
        tenant["name"] = f"t{i}"
    return FlowSpec.from_dict(
        {
            "name": "random",
            "nodes": nodes,
            "edges": [list(e) for e in edges],
            "fibs": fibs,
            "zones": zones,
            "tenants": tenants,
            "ttl": draw(st.integers(1, 32)),
        }
    )


def by_src_ttl(witness) -> dict[tuple[int, int], IntervalSet]:
    """A JSON witness as ``(src, ttl) -> dst set``, however it is cut
    into cubes."""
    out: dict[tuple[int, int], IntervalSet] = {}
    for c in witness:
        dsts = IntervalSet.from_intervals(map(tuple, c["dst"]))
        for slo, shi in c["src"]:
            for tlo, thi in c["ttl"]:
                for src in range(slo, shi + 1):
                    for ttl in range(tlo, thi + 1):
                        out[(src, ttl)] = out.get((src, ttl), IntervalSet.empty()).union(dsts)
    return out


def canonical(pairs) -> list:
    """``(property, node, witness)`` triples, order-free."""
    return sorted(
        (prop, node, sorted((key, dsts.intervals) for key, dsts in by_src_ttl(witness).items()))
        for prop, node, witness in pairs
    )


def reference_findings(spec: FlowSpec) -> tuple[list, int]:
    reach = ref.reachability(spec)
    found = [("no-escape", node, ps.as_dict()) for (_, node), ps in ref.escapes(spec, reach).items()]
    found += [("blackhole-freedom", node, ps.as_dict()) for node, ps in ref.blackholes(spec, reach).items()]
    found += [("isolation", node, ps.as_dict()) for (_, _, node), ps in ref.tenant_meets(spec, reach).items()]
    delivered = sum(ps.count() for ps in reach.delivered.values())
    return found, delivered


@settings(max_examples=300, deadline=None, derandomize=True)
@given(specs())
def test_walks_find_what_the_fixpoint_finds(spec):
    report = analyze(spec)
    found, delivered = reference_findings(spec)
    live = [
        (v.property, v.node, v.witness)
        for v in report.violations
        if v.property != "loop-freedom" and v.node is not None
    ]
    assert canonical(live) == canonical(found)
    assert report.stats["delivered_packets"] == delivered


@settings(max_examples=300, deadline=None, derandomize=True)
@given(specs())
def test_class_index_equals_the_refined_partition(spec):
    live = destination_classes(build_transfers(spec))
    assert sorted(c.intervals for c in live) == sorted(
        c.intervals for c in ref.destination_classes(spec)
    )

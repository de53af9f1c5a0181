"""repro.topo — fleet-scale topology simulation with a sharded DES.

The paper's claim is that sublayering composes at every scale; this
package takes the repo's host-pair stacks to *networks*: declarative
topology generators (star, ring, grid, fat-tree, seeded random) over
the Fig 4 router sublayers, partitioned into regions and executed
either serially or as a conservative-lookahead windowed simulation of
the regions — with the two executions provably byte-identical on
delivery order, metrics, and traces.

Layer position: tier 8, above :mod:`repro.faults` — topo may import
compose/network/obs/faults; nothing below it imports topo (the
staticcheck tier table enforces both directions).
"""

from .links import FleetChannel
from .region import RegionWorld
from .runner import FleetResult, run_fleet, write_artifacts
from .spec import (
    KINDS,
    FleetSpec,
    assign_regions,
    fat_tree,
    flow_spec,
    grid,
    make_spec,
    random_graph,
    ring,
    star,
    static_fibs,
)
from .traffic import Flow, plan_traffic

__all__ = [
    "KINDS",
    "FleetChannel",
    "FleetResult",
    "FleetSpec",
    "Flow",
    "RegionWorld",
    "assign_regions",
    "fat_tree",
    "flow_spec",
    "grid",
    "make_spec",
    "plan_traffic",
    "random_graph",
    "ring",
    "run_fleet",
    "star",
    "static_fibs",
    "write_artifacts",
]

"""Symbolic data-plane analysis: StacKAT-style packet-set reachability.

The paper argues each sublayer should stay analyzable in isolation;
this package analyzes the *forwarding* sublayer statically, the way
StacKAT (PAPERS.md) pushes symbolic packet sets through network
programs and Zave/Rexford reason about composed services without
executing them.  No simulation runs: the input is a
:class:`~repro.flow.spec.FlowSpec` — node addresses, live links, and
installed FIBs, snapshotted from a
:class:`~repro.network.topology.Topology` or written declaratively —
and the engine proves (or refutes, with witness packet sets):

* **no-escape** — packets addressed inside a zone never reach nodes
  outside it;
* **isolation** — two tenants' packet sets never meet at the same
  node/port;
* **blackhole-freedom** — every deliverable address has a path;
* **loop-freedom** — no packet set re-enters a node it already
  traversed.

Destinations fall into classes that every node routes uniformly
(:mod:`repro.flow.reach`), so one walk per (ingress, class) with the
per-node decision of :mod:`repro.flow.transfer` stands for every
packet in the class.

``python -m repro.flow`` runs the four checks over example topologies
or spec files; ``python -m repro.staticcheck --flow`` surfaces the
verdicts as static rules T4/T5.
"""

from .examples import EXAMPLE_SPECS, example_spec
from .properties import ALL_PROPERTIES, FlowViolation, analyze, analyze_all
from .report import FlowReport
from .sets import FIELDS, IntervalSet, PacketSet, cube
from .spec import FlowSpec
from .transfer import NodeTransfer, build_transfers

__all__ = [
    "ALL_PROPERTIES",
    "EXAMPLE_SPECS",
    "FIELDS",
    "FlowReport",
    "FlowSpec",
    "FlowViolation",
    "IntervalSet",
    "NodeTransfer",
    "PacketSet",
    "analyze",
    "analyze_all",
    "build_transfers",
    "cube",
    "example_spec",
]

"""Deterministic traffic plans over a fleet.

A plan is a list of :class:`Flow` records — (src, dst, start, packet
count, interval) — drawn from the spec's named ``traffic`` rng stream,
so the plan is a pure function of ``(spec, flows, packets)``: the
serial conductor and every sharded region can rebuild it identically
without exchanging state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..sim.rng import derive_seed
from .spec import FleetSpec

#: Ident space reserved per flow; packet k of flow f gets ident
#: ``f * FLOW_IDENT_STRIDE + k`` — globally unique, order-free.
FLOW_IDENT_STRIDE = 100_000


@dataclass(frozen=True)
class Flow:
    """One unidirectional packet train between two fleet nodes."""

    index: int
    src: int
    dst: int
    start: float
    packets: int
    interval: float

    def ident(self, k: int) -> int:
        """Globally unique packet id: flow index striped by packet number."""
        return self.index * FLOW_IDENT_STRIDE + k


def plan_traffic(
    spec: FleetSpec,
    flows: int,
    packets: int,
    interval: float = 0.01,
    spread: float = 0.25,
) -> list[Flow]:
    """Draw ``flows`` random src->dst trains from the ``traffic`` stream.

    Endpoints are distinct nodes drawn uniformly; start times spread
    over ``[0, spread)`` so trains overlap but do not align, which is
    what makes the C13 benchmark exercise concurrent multi-hop paths.
    """
    if flows < 1 or packets < 1:
        raise ConfigurationError("traffic plan needs flows >= 1, packets >= 1")
    if len(spec.nodes) < 2:
        raise ConfigurationError("traffic needs >= 2 nodes")
    rng = random.Random(derive_seed(spec.seed, "traffic"))
    plan: list[Flow] = []
    for index in range(flows):
        src = rng.choice(spec.nodes)
        dst = rng.choice(spec.nodes)
        while dst == src:
            dst = rng.choice(spec.nodes)
        start = round(rng.uniform(0.0, spread), 6)
        plan.append(
            Flow(
                index=index,
                src=src,
                dst=dst,
                start=start,
                packets=packets,
                interval=interval,
            )
        )
    return plan

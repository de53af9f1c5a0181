"""Deterministic fault injection as a sublayering operation.

The paper's claim is that sublayers are *fungible*: insert, swap, and
verify one without touching its neighbours.  The strongest exercise of
that claim is to make adversity itself a sublayer.  This package does
three things:

* :mod:`repro.faults.sublayers` — a family of
  :class:`~repro.faults.sublayers.FaultSublayer` classes (drop,
  duplicate, reorder, corrupt, delay, truncate, stall/blackhole) that
  are genuine :class:`~repro.core.sublayer.Sublayer` subclasses.  They
  are ``TRANSPARENT``: control wiring, the litmus adjacency checks,
  and the compose-time layer-order validation look straight through
  them, so injecting a fault is literally
  :meth:`~repro.core.stack.Stack.insert` /
  :meth:`~repro.compose.StackBuilder.with_fault`.
* :mod:`repro.faults.scenarios` — one :class:`Scenario` record and a
  recipe per stack profile that fills it in: a fault plan as data, a
  world built and driven through :mod:`repro.sim` for each seeded
  trial, and invariant monitors checked against the telemetry
  :mod:`repro.obs` already collects.
* ``python -m repro.faults`` — a campaign CLI running a scenario
  matrix and emitting a JSON resilience report (nonzero exit on any
  invariant violation).

Every random decision draws from a named :func:`repro.sim.rng` stream,
so a campaign is a pure function of its seed list.
"""

from .schedule import FaultSchedule
from .sublayers import (
    CorruptBitsFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultSublayer,
    NoOpFault,
    ReorderFault,
    StallFault,
    TruncateFault,
)

__all__ = [
    "CorruptBitsFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "FaultSchedule",
    "FaultSublayer",
    "NoOpFault",
    "ReorderFault",
    "StallFault",
    "TruncateFault",
]

"""What every workload has in common.

A workload is a class with ``prepare()`` (everything a user pays before
the first timed operation: stack build, socket bind, handshake, FIBs,
warm-up), ``measure(seconds)`` and ``close()``.  ``measure`` repeats one
*timed unit* — a closed loop: the next unit starts when the previous one
is verified — until ``seconds`` of host time have passed, and returns a
:class:`Phase`.  The inputs of unit *k* depend on the seed and *k* only.
"""

from __future__ import annotations

import gc
import importlib
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any

from ..metrics import WORKLOADS
from ..tracer import DRIVER

#: Timed units after which a deterministic workload snapshots its exact
#: counts.  A phase always runs at least this many, however short
#: ``seconds`` is, so the counts never depend on how long the run was.
CHECK_UNITS = 4


def peak_rss_mb() -> float:
    """The process's peak resident set so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Phase:
    """One measured phase of one workload."""

    attempted: int = 0
    failed: int = 0
    #: Host seconds measured: the whole phase on the net workloads, the
    #: time inside timed units on the others.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Host seconds each timed unit took, in completion order, and the
    #: measured host seconds that had passed when each completed.
    unit_s: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)
    #: Exact counters read from public stats when the phase (net) or its
    #: first ``CHECK_UNITS`` units (deterministic workloads) ended, with
    #: ``ops`` the operations they cover.
    counts: dict[str, float] = field(default_factory=dict)
    #: Event-loop heartbeat lateness samples, seconds (net workloads).
    lag_s: list[float] = field(default_factory=list)
    #: Peak resident set when the workload's ``RSS_UNITS``-th unit ended
    #: (or the phase, if it was shorter), MiB.
    rss_mb: float = 0.0

    @property
    def ops(self) -> int:
        """Operations whose output was checked and found correct."""
        return self.attempted - self.failed

    def add_unit(self, workload: "Workload", unit_s: float, done_s: float, failed: int) -> None:
        """Book one finished timed unit."""
        self.unit_s.append(unit_s)
        self.done_s.append(done_s)
        self.attempted += workload.OPS_PER_UNIT
        self.failed += failed
        if workload.tracer is not None:
            workload.tracer.op = self.attempted
        if len(self.unit_s) == workload.RSS_UNITS:
            self.rss_mb = peak_rss_mb()


class Workload:
    """Base class: seed handling and the bookkeeping around timed units."""

    #: Operations one timed unit performs.
    OPS_PER_UNIT = 1
    #: ``op_tail_ms`` is this order statistic of the unit latencies: the
    #: highest of p99/p90 that leaves about ten samples beyond it in a
    #: 10 s run.  With ``TAIL_GROUPS`` > 1 it is taken in each of that
    #: many equal groups of consecutive units and the median reported.
    TAIL = 0.90
    TAIL_GROUPS = 1
    #: Units after which peak memory is read: memory the stacks keep per
    #: byte sent must not make a faster build look heavier.
    RSS_UNITS = 30

    def __init__(self, seed: int, tracer: Any | None = None):
        self.seed = seed
        self.tracer = tracer
        #: Host milliseconds ``prepare`` spent building stacks.
        self.build_ms = 0.0

    def rng(self, stream: str) -> random.Random:
        """A named random stream derived from the seed."""
        return random.Random(f"{self.seed}:{stream}")

    def driver(self, callback: Any) -> Any:
        """``callback`` as the benchmark's own span when tracing."""
        if self.tracer is None:
            return callback
        return self.tracer.wrap(callback, DRIVER)

    def prepare(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, heartbeat: bool = False) -> Phase:
        """One phase of timed units (``heartbeat`` matters to net loops only)."""
        return run_units(self, seconds, self._one_unit, self._counts)

    def _one_unit(self) -> int:
        """Perform one timed unit; returns how many of its operations failed."""
        raise NotImplementedError

    def _counts(self) -> dict[str, float]:
        """The exact counters so far, read from public stats."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Layer scalars only this workload can measure."""
        return {}

    def close(self) -> None:
        """Release sockets and loops (nothing to do for simulations)."""


def registry_counts(registry: Any) -> dict[str, float]:
    """Sublayer counters summed over every stack reporting into ``registry``."""
    return {
        name: sum(registry.counter(found) for found in registry.names(pattern))
        for name, pattern in (
            ("transport.rd.retransmits", "*/rd/retransmitted"),
            ("transport.rd.duplicates_dropped", "*/rd/duplicates_dropped"),
            ("transport.osr.segments", "*/osr/segments_released"),
            ("datalink.recovery.retransmits", "*/recovery/data_retransmitted"),
            ("datalink.recovery.corrupt_dropped", "*/recovery/corrupt_dropped"),
        )
    }


def load(name: str) -> type[Workload]:
    """Import and return the class of the workload called ``name``."""
    module, cls, _ = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def run_units(workload: Workload, seconds: float, one_unit: Any, counts: Any) -> Phase:
    """Repeat ``one_unit()`` for ``seconds``; the loop of every simulation.

    ``one_unit()`` performs one timed unit and returns how many of its
    operations failed; ``counts()`` reads the exact counters.
    """
    phase = Phase()
    clock = time.perf_counter
    before = counts()

    def snapshot() -> dict[str, float]:
        after = counts()
        return dict({key: after[key] - before[key] for key in after}, ops=phase.ops)

    cpu_start = time.process_time()
    deadline = clock() + seconds
    while True:
        # Every unit starts from the same collector state: without this a
        # generation-2 pass lands in some units and not in others, and
        # the median unit time flips between the two kinds.  The unit's
        # own collections still run inside it; this one is not timed.
        gc.collect()
        unit_start = clock()
        failed = one_unit()
        unit_s = clock() - unit_start
        phase.wall_s += unit_s
        phase.add_unit(workload, unit_s, phase.wall_s, failed)
        done = len(phase.unit_s)
        if done == CHECK_UNITS:
            phase.counts = snapshot()
        if failed or (done >= CHECK_UNITS and clock() >= deadline):
            break
    phase.cpu_s = time.process_time() - cpu_start
    if not phase.counts:
        phase.counts = snapshot()
    phase.rss_mb = phase.rss_mb or peak_rss_mb()
    return phase

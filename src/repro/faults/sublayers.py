"""Fault injectors that are genuine sublayers.

Every class here is a :class:`~repro.core.sublayer.Sublayer` subclass
with ``TRANSPARENT = True``: it offers no service interface, owns no
header, and the control plane wires straight past it — its neighbours
cannot tell it is there.  Inserting one into a stack is therefore a
pure sublayering operation (:meth:`repro.core.stack.Stack.insert`,
:meth:`repro.compose.StackBuilder.with_fault`) and the stack still
passes the litmus tests.

Each fault is driven by a :class:`~repro.faults.schedule.FaultSchedule`
and a dedicated rng (use a named :class:`repro.sim.rng.RngFactory`
stream so campaigns replay bit-for-bit).  ``direction`` selects which
data path the fault afflicts: ``"down"`` (transmit side), ``"up"``
(receive side), or ``"both"``.

Faults keep honest books: every class counts ``units_seen`` and
``faults_injected`` through :meth:`~repro.core.sublayer.Sublayer.count`
so monitors can assert the adversity actually happened (a resilience
run whose faults never fired proves nothing).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..core.bits import Bits
from ..core.errors import ConfigurationError
from ..core.sublayer import Sublayer
from .schedule import FaultSchedule

DIRECTIONS = ("down", "up", "both")


class FaultSublayer(Sublayer):
    """Base class: schedule + rng + direction, and the injection loop.

    Subclasses override :meth:`apply` (what happens when the schedule
    fires) and optionally :meth:`pass_through` (what happens when it
    does not — reorder/stall faults interleave held units there).
    """

    TRANSPARENT = True

    def __init__(
        self,
        name: str,
        schedule: FaultSchedule | None = None,
        rng: random.Random | None = None,
        direction: str = "down",
    ):
        super().__init__(name)
        if direction not in DIRECTIONS:
            raise ConfigurationError(
                f"fault direction must be one of {DIRECTIONS}, got {direction!r}"
            )
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.rng = rng if rng is not None else random.Random(0)
        self.direction = direction

    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        self.state.units_seen = 0
        self.state.faults_injected = 0
        self.extra_state()

    def extra_state(self) -> None:
        """Subclass hook: initialise additional state fields."""

    def clone_fresh(self) -> "FaultSublayer":
        return type(self)(
            self.name,
            schedule=self.schedule,
            rng=self.rng,
            direction=self.direction,
            **self.clone_config(),
        )

    def clone_config(self) -> dict[str, Any]:
        """Subclass hook: extra constructor kwargs to preserve."""
        return {}

    # ------------------------------------------------------------------
    def from_above(self, sdu: Any, **meta: Any) -> None:
        if self.direction == "up":
            self.send_down(sdu, **meta)
            return
        self._process(sdu, meta, self.send_down)

    def from_below(self, pdu: Any, **meta: Any) -> None:
        if self.direction == "down":
            self.deliver_up(pdu, **meta)
            return
        self._process(pdu, meta, self.deliver_up)

    def _process(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        self.count("units_seen")
        index = self.state.units_seen - 1
        if self.schedule.fires(index, self.clock.now(), self.rng, unit, meta):
            self.count("faults_injected")
            self.apply(unit, meta, forward)
        else:
            self.pass_through(unit, meta, forward)

    # ------------------------------------------------------------------
    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        raise NotImplementedError

    def pass_through(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        forward(unit, **meta)


class NoOpFault(FaultSublayer):
    """A fault slot with the fault removed: pure pass-through.

    The control case for resilience experiments and the C8 overhead
    benchmark — it skips even the bookkeeping so its cost is the cost
    of *having* a fault position, not of any fault logic.
    """

    def from_above(self, sdu: Any, **meta: Any) -> None:
        self.send_down(sdu, **meta)

    def from_below(self, pdu: Any, **meta: Any) -> None:
        self.deliver_up(pdu, **meta)


class DropFault(FaultSublayer):
    """Silently discard scheduled units."""

    def extra_state(self) -> None:
        self.state.dropped = 0

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        self.count("dropped")


class DuplicateFault(FaultSublayer):
    """Forward scheduled units twice, back to back."""

    def extra_state(self) -> None:
        self.state.duplicated = 0

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        self.count("duplicated")
        forward(unit, **meta)
        forward(unit, **meta)


class ReorderFault(FaultSublayer):
    """Hold a scheduled unit and release it *after* the next one.

    If no further unit arrives within ``max_hold`` virtual seconds the
    held unit is flushed anyway, so reordering degrades to delay at the
    tail of a flow instead of losing the last unit.
    """

    def __init__(
        self,
        name: str,
        schedule: FaultSchedule | None = None,
        rng: random.Random | None = None,
        direction: str = "down",
        max_hold: float = 0.05,
    ):
        super().__init__(name, schedule=schedule, rng=rng, direction=direction)
        if max_hold <= 0:
            raise ConfigurationError("max_hold must be positive")
        self.max_hold = max_hold

    def clone_config(self) -> dict[str, Any]:
        return {"max_hold": self.max_hold}

    def extra_state(self) -> None:
        self.state.reordered = 0
        self.state.held = None

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        if self.state.held is not None:
            # Already holding one: forwarding two out-of-order units at
            # once would just swap the swap back; pass this one through.
            forward(unit, **meta)
            return
        self.count("reordered")
        self.state.held = (unit, meta, forward)
        self.clock.call_later(self.max_hold, self._flush)

    def pass_through(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        forward(unit, **meta)
        self._flush()

    def _flush(self) -> None:
        held = self.state.held
        if held is None:
            return
        self.state.held = None
        unit, meta, forward = held
        forward(unit, **meta)


class CorruptBitsFault(FaultSublayer):
    """Flip ``flips`` random bits in a :class:`Bits` or bytes unit.

    Structured units (:class:`~repro.core.pdu.Pdu`) pass unchanged —
    like the link's bit-error model, corruption applies to serialized
    representations only.
    """

    def __init__(
        self,
        name: str,
        schedule: FaultSchedule | None = None,
        rng: random.Random | None = None,
        direction: str = "down",
        flips: int = 1,
    ):
        super().__init__(name, schedule=schedule, rng=rng, direction=direction)
        if flips < 1:
            raise ConfigurationError("flips must be >= 1")
        self.flips = flips

    def clone_config(self) -> dict[str, Any]:
        return {"flips": self.flips}

    def extra_state(self) -> None:
        self.state.corrupted = 0

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        if isinstance(unit, Bits) and len(unit) > 0:
            flipped = list(unit)
            for _ in range(self.flips):
                flipped[self.rng.randrange(len(flipped))] ^= 1
            self.count("corrupted")
            forward(Bits(flipped), **meta)
            return
        if isinstance(unit, (bytes, bytearray)) and len(unit) > 0:
            data = bytearray(unit)
            for _ in range(self.flips):
                position = self.rng.randrange(len(data) * 8)
                data[position // 8] ^= 1 << (position % 8)
            self.count("corrupted")
            forward(bytes(data), **meta)
            return
        forward(unit, **meta)


class TruncateFault(FaultSublayer):
    """Cut a scheduled unit down to a ``keep`` fraction of its length."""

    def __init__(
        self,
        name: str,
        schedule: FaultSchedule | None = None,
        rng: random.Random | None = None,
        direction: str = "down",
        keep: float = 0.5,
    ):
        super().__init__(name, schedule=schedule, rng=rng, direction=direction)
        if not 0.0 <= keep < 1.0:
            raise ConfigurationError("keep must be in [0, 1)")
        self.keep = keep

    def clone_config(self) -> dict[str, Any]:
        return {"keep": self.keep}

    def extra_state(self) -> None:
        self.state.truncated = 0

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        if isinstance(unit, Bits) and len(unit) > 0:
            self.count("truncated")
            forward(Bits(list(unit)[: int(len(unit) * self.keep)]), **meta)
            return
        if isinstance(unit, (bytes, bytearray)) and len(unit) > 0:
            self.count("truncated")
            forward(bytes(unit[: int(len(unit) * self.keep)]), **meta)
            return
        forward(unit, **meta)


class DelayFault(FaultSublayer):
    """Hold scheduled units for ``delay`` (+ uniform ``jitter``) seconds."""

    def __init__(
        self,
        name: str,
        schedule: FaultSchedule | None = None,
        rng: random.Random | None = None,
        direction: str = "down",
        delay: float = 0.05,
        jitter: float = 0.0,
    ):
        super().__init__(name, schedule=schedule, rng=rng, direction=direction)
        if delay < 0 or jitter < 0:
            raise ConfigurationError("delay and jitter must be non-negative")
        self.delay = delay
        self.jitter = jitter

    def clone_config(self) -> dict[str, Any]:
        return {"delay": self.delay, "jitter": self.jitter}

    def extra_state(self) -> None:
        self.state.delayed = 0

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        self.count("delayed")
        pause = self.delay + (
            self.rng.uniform(0, self.jitter) if self.jitter > 0 else 0.0
        )
        self.clock.call_later(pause, lambda: forward(unit, **meta))


class StallFault(FaultSublayer):
    """A stall / blackhole window.

    While the schedule's window is open, units are buffered
    (``blackhole=False``) or discarded (``blackhole=True``).  Buffered
    units are released in order by the first unit crossing after the
    window closes, or by a timer at ``schedule.stop_time`` when one is
    declared — modelling an outage the protocol above must ride out.
    """

    def __init__(
        self,
        name: str,
        schedule: FaultSchedule | None = None,
        rng: random.Random | None = None,
        direction: str = "down",
        blackhole: bool = False,
    ):
        super().__init__(name, schedule=schedule, rng=rng, direction=direction)
        self.blackhole = blackhole

    def clone_config(self) -> dict[str, Any]:
        return {"blackhole": self.blackhole}

    def extra_state(self) -> None:
        self.state.stalled = 0
        self.state.blackholed = 0
        self.state.buffer = []
        self._flush_armed = False

    def apply(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        if self.blackhole:
            self.count("blackholed")
            return
        self.count("stalled")
        self.state.buffer.append((unit, meta, forward))
        if self.schedule.stop_time is not None and not self._flush_armed:
            self._flush_armed = True
            self.clock.call_later(
                max(0.0, self.schedule.stop_time - self.clock.now()),
                self._flush,
            )

    def pass_through(
        self, unit: Any, meta: dict[str, Any], forward: Callable[..., None]
    ) -> None:
        self._flush()
        forward(unit, **meta)

    def _flush(self) -> None:
        buffered = list(self.state.buffer)
        if not buffered:
            return
        self.state.buffer = []
        for unit, meta, forward in buffered:
            forward(unit, **meta)

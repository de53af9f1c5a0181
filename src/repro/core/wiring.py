"""Compiled data-path wiring plans with instrumentation tiers.

Every data-path hop in a :class:`~repro.core.stack.Stack` used to pay
for the full measurement apparatus — an :class:`InterfaceCall`
allocation, a walk of the tap list, a ``span_hook`` check, and an
:func:`~repro.core.instrument.acting_as` context switch — whether or
not anything was watching.  This module makes the observability level
an explicit *compilation* choice: composition is described once, then
compiled to the cheapest hop functions the requested tier allows.

Three tiers:

``full``
    Everything the litmus methodology needs: every crossing is recorded
    in the interface log, every state access in the access log, taps
    and spans fire, and each callback runs under ``acting_as`` so state
    mutations are attributed to the right sublayer.  Litmus tests and
    contract monitors require this tier; it is the default.

``metrics``
    Counters only.  Hops bump cheap per-direction crossing counters
    (:class:`HopCounters`) and nothing else; the interface and access
    logs are replaced by :class:`~repro.core.interface.NullInterfaceLog`
    and :class:`~repro.core.instrument.NullAccessLog`, so per-crossing
    and per-state-access bookkeeping vanishes while "how many crossings
    did we pay for" stays answerable.

``off``
    Hops are direct bound-method chains — a sublayer's ``send_down``
    *is* the next sublayer's ``from_above``.  Both logs are null.  This
    is the "fast as the hardware allows" configuration the C7 hop-cost
    benchmark quantifies.

The tier sets the baseline; attaching an observer *raises* what must be
observed.  When :meth:`repro.obs.SpanTracer.attach` installs a span
hook, or a tap is added to :class:`TapList`, the plan recompiles and
the new hop functions include exactly the extra work the observer
needs — at any tier.  Detaching recompiles back down.  This is the
measure-everything-but-pay-only-when-watching discipline: the
architecture is identical at every tier (same sublayers, same headers,
same virtual-time behaviour); only per-crossing host work changes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from .errors import ConfigurationError
from .instrument import acting_as
from .interface import InterfaceCall

# NOTE: this module must not import repro.core.stack (layer-order check
# forbids the cycle); the plan holds its Stack untyped.

#: Pseudo-actors for the stack's two ends: the application above the
#: top sublayer and the wire below the bottom one.
APP = "_app"
WIRE = "_wire"

TIER_FULL = "full"
TIER_METRICS = "metrics"
TIER_OFF = "off"

#: All instrumentation tiers, most to least observable.
TIERS = (TIER_FULL, TIER_METRICS, TIER_OFF)


def validate_tier(tier: str) -> str:
    """Return ``tier`` or raise :class:`ConfigurationError`."""
    if tier not in TIERS:
        raise ConfigurationError(
            f"unknown instrumentation tier {tier!r}; choose from {TIERS}"
        )
    return tier


class HopCounters:
    """Cheap crossing counters — the ``metrics`` tier's entire books.

    Plain integer attributes on a slotted object: one ``+= 1`` per hop,
    no allocation, no string formatting.  ``publish`` mirrors the
    totals into a metrics sink on demand (never per hop).
    """

    __slots__ = ("down", "up", "dropped_deliveries")

    def __init__(self) -> None:
        self.down = 0
        self.up = 0
        self.dropped_deliveries = 0

    def total(self) -> int:
        """All data-path crossings, both directions."""
        return self.down + self.up

    def snapshot(self) -> dict[str, int]:
        return {
            "down": self.down,
            "up": self.up,
            "dropped_deliveries": self.dropped_deliveries,
        }

    def reset(self) -> None:
        self.down = 0
        self.up = 0
        self.dropped_deliveries = 0

    def __repr__(self) -> str:
        return (
            f"HopCounters(down={self.down}, up={self.up}, "
            f"dropped_deliveries={self.dropped_deliveries})"
        )


class TapList(list):
    """A list of hop observers that reports every mutation.

    The wiring plan compiles the tap walk into the hop functions only
    when taps exist, so adding or removing one must trigger
    recompilation — the ``on_change`` callback is the stack's hook for
    that.  All the usual list mutators are covered; iteration and
    reads are plain ``list``.
    """

    def __init__(
        self,
        iterable: Any = (),
        on_change: Callable[[], None] | None = None,
    ) -> None:
        super().__init__(iterable)
        self._on_change = on_change

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def append(self, item: Any) -> None:
        super().append(item)
        self._changed()

    def extend(self, items: Any) -> None:
        super().extend(items)
        self._changed()

    def insert(self, index: int, item: Any) -> None:
        super().insert(index, item)
        self._changed()

    def remove(self, item: Any) -> None:
        super().remove(item)
        self._changed()

    def pop(self, index: int = -1) -> Any:
        out = super().pop(index)
        self._changed()
        return out

    def clear(self) -> None:
        super().clear()
        self._changed()

    def __setitem__(self, index: Any, item: Any) -> None:
        super().__setitem__(index, item)
        self._changed()

    def __delitem__(self, index: Any) -> None:
        super().__delitem__(index)
        self._changed()

    def sort(self, *args: Any, **kwargs: Any) -> None:
        super().sort(*args, **kwargs)
        self._changed()

    def reverse(self) -> None:
        super().reverse()
        self._changed()

    def __iadd__(self, other: Any) -> "TapList":
        super().extend(other)
        self._changed()
        return self

    def __imul__(self, n: Any) -> "TapList":
        super().__imul__(n)
        self._changed()
        return self


class WiringPlan:
    """Compiled hop functions for one stack at one instrumentation tier.

    The plan owns no policy: it reads the stack's current observability
    needs (tier, taps, span hook, endpoints) and emits one closure per
    hop.  :meth:`compile` is cheap — a handful of closure allocations —
    so it reruns whenever anything observable changes.
    """

    def __init__(self, stack: Any, tier: str = TIER_FULL) -> None:
        self.stack = stack
        self.tier = validate_tier(tier)
        self.counters = HopCounters()
        #: How many times this plan has been compiled (tests and
        #: debugging; recompilation should track observer changes).
        self.compilations = 0
        self.app_send: Callable[..., None] = self._uncompiled
        self.wire_receive: Callable[..., None] = self._uncompiled

    def _uncompiled(self, *args: Any, **kwargs: Any) -> None:
        raise ConfigurationError(
            f"stack {self.stack.name!r} has no compiled wiring plan"
        )

    # ------------------------------------------------------------------
    def compile(self) -> None:
        """(Re)build every hop closure from the stack's current state."""
        sublayers = self.stack.sublayers
        for index, sublayer in enumerate(sublayers):
            above = sublayers[index - 1] if index > 0 else None
            below = (
                sublayers[index + 1]
                if index + 1 < len(sublayers)
                else None
            )
            if below is not None:
                sublayer._send_down = self._hop(
                    "down", "send", sublayer.name, below.name,
                    below.from_above, acting=below.name,
                )
            else:
                sublayer._send_down = self._wire_hop(sublayer.name)
            if above is not None:
                sublayer._deliver_up = self._hop(
                    "up", "deliver", sublayer.name, above.name,
                    above.from_below, acting=above.name,
                )
            else:
                sublayer._deliver_up = self._app_hop(sublayer.name)
        top, bottom = sublayers[0], sublayers[-1]
        self.app_send = self._hop(
            "down", "send", APP, top.name, top.from_above, acting=top.name
        )
        self.wire_receive = self._hop(
            "up", "deliver", WIRE, bottom.name, bottom.from_below,
            acting=bottom.name,
        )
        self.compilations += 1

    # ------------------------------------------------------------------
    # Endpoint hops
    # ------------------------------------------------------------------
    def _wire_hop(self, caller: str) -> Callable[..., None]:
        """The bottom sublayer's send_down, bound to ``on_transmit``."""
        stack = self.stack
        sink = stack.on_transmit
        if sink is None:
            def sink(sdu: Any, **meta: Any) -> None:
                raise ConfigurationError(
                    f"stack {stack.name!r} has no on_transmit sink"
                )
        return self._hop("down", "send", caller, WIRE, sink, acting=None)

    def _app_hop(self, caller: str) -> Callable[..., None]:
        """The top sublayer's deliver_up, bound to ``on_deliver``."""
        stack = self.stack
        sink = stack.on_deliver
        if sink is None:
            if stack.lossy_delivery:
                counters = self.counters
                metrics = stack.metrics

                def sink(sdu: Any, **meta: Any) -> None:
                    counters.dropped_deliveries += 1
                    if metrics is not None:
                        metrics.inc(f"{stack.name}/dropped_deliveries")
            else:
                def sink(sdu: Any, **meta: Any) -> None:
                    raise ConfigurationError(
                        f"stack {stack.name!r} has no on_deliver sink "
                        "(set one, or construct the stack with "
                        "lossy_delivery=True to drop and count instead)"
                    )
        return self._hop("up", "deliver", caller, APP, sink, acting=None)

    # ------------------------------------------------------------------
    # The hop compiler
    # ------------------------------------------------------------------
    def _hop(
        self,
        direction: str,
        primitive: str,
        caller: str,
        provider: str,
        target: Callable[..., None],
        acting: str | None,
    ) -> Callable[..., None]:
        """One compiled data-path hop.

        Layering, innermost out: actor attribution (full tier,
        sublayer targets only), span bracket (if a hook is attached),
        tap walk (if taps are attached), then the tier's own
        bookkeeping.  Order on the wire-visible side matches the
        historical behaviour exactly: interface record, taps, span,
        acting_as, call.
        """
        stack = self.stack
        hook = stack.span_hook

        if self.tier == TIER_FULL and acting is not None:
            attributed_target = target

            def call(sdu: Any, **meta: Any) -> None:
                with acting_as(acting):
                    attributed_target(sdu, **meta)
        else:
            call = target

        if hook is not None:
            spanned = call
            # A sampling hook returns None for crossings it is not
            # keeping (head-sampled out): the hop then skips the
            # context-manager protocol entirely.  Sampling hooks also
            # expose a ``gate`` — ``[dropping, skipped]`` — that is
            # True for the whole dynamic extent of a head-dropped
            # activation, letting these hops skip even the hook call:
            # two list indexings instead of a frame, which is what
            # keeps sampled tracing within the C12 overhead budget.
            gate = getattr(hook, "gate", None)

            if gate is None:

                def call(sdu: Any, **meta: Any) -> None:
                    span = hook(direction, caller, provider, sdu, meta)
                    if span is None:
                        spanned(sdu, **meta)
                    else:
                        with span:
                            spanned(sdu, **meta)

            else:

                def call(sdu: Any, **meta: Any) -> None:
                    if gate[0]:
                        gate[1] += 1
                        spanned(sdu, **meta)
                        return
                    span = hook(direction, caller, provider, sdu, meta)
                    if span is None:
                        spanned(sdu, **meta)
                    else:
                        with span:
                            spanned(sdu, **meta)

        # Per-traversal latency clock pair: metrics tier only, endpoint
        # entry hops only (app_send going down, wire_receive coming
        # up), so each PDU costs exactly one perf_counter pair however
        # deep the stack is.  Because hops are synchronous, the pair
        # brackets the PDU's full crossing of this stack — "hop" in the
        # network sense.  Wall-clock, hence strictly opt-in: campaign
        # scenarios must not enable it or their reports stop being
        # deterministic.
        if self.tier == TIER_METRICS and caller in (APP, WIRE):
            latency = getattr(stack, "hop_latency", None)
            if latency is not None:
                observe = latency.observe
                timed = call

                def call(sdu: Any, **meta: Any) -> None:
                    start = perf_counter()
                    timed(sdu, **meta)
                    observe(perf_counter() - start)

        taps = tuple(stack.taps)

        if self.tier == TIER_FULL:
            record = stack.interface_log.record
            interface = f"data:{stack.name}"
            if taps:
                def hop(sdu: Any, **meta: Any) -> None:
                    record(InterfaceCall(interface, primitive, caller, provider, 1))
                    for tap in taps:
                        tap(direction, caller, provider, sdu, meta)
                    call(sdu, **meta)
            else:
                def hop(sdu: Any, **meta: Any) -> None:
                    record(InterfaceCall(interface, primitive, caller, provider, 1))
                    call(sdu, **meta)
            return hop

        if self.tier == TIER_METRICS:
            counters = self.counters
            if direction == "down":
                if taps:
                    def hop(sdu: Any, **meta: Any) -> None:
                        counters.down += 1
                        for tap in taps:
                            tap(direction, caller, provider, sdu, meta)
                        call(sdu, **meta)
                else:
                    def hop(sdu: Any, **meta: Any) -> None:
                        counters.down += 1
                        call(sdu, **meta)
            else:
                if taps:
                    def hop(sdu: Any, **meta: Any) -> None:
                        counters.up += 1
                        for tap in taps:
                            tap(direction, caller, provider, sdu, meta)
                        call(sdu, **meta)
                else:
                    def hop(sdu: Any, **meta: Any) -> None:
                        counters.up += 1
                        call(sdu, **meta)
            return hop

        # TIER_OFF: nothing between the sublayers but the observers
        # someone explicitly attached.
        if taps:
            def hop(sdu: Any, **meta: Any) -> None:
                for tap in taps:
                    tap(direction, caller, provider, sdu, meta)
                call(sdu, **meta)
            return hop
        return call

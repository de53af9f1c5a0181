"""Sublayer composition: assembling an ordered stack and wiring it.

A :class:`Stack` takes sublayers listed *top to bottom* (the T1 order)
and wires each to exactly its neighbours:

* downward data path: each sublayer's ``send_down`` reaches the next
  lower sublayer's ``from_above``; the bottom sublayer's output goes to
  the stack's ``on_transmit`` callback (typically a simulated link);
* upward data path: ``deliver_up`` reaches the next higher sublayer's
  ``from_below``; the top sublayer's output goes to ``on_deliver``
  (the application);
* control: each sublayer gets one :class:`BoundPort` onto the service
  interface of the sublayer directly below (T2), and the stack
  auto-connects a lower sublayer's notifications to ``nf_<channel>``
  methods on the sublayer immediately above.

The data-path hops themselves are *compiled*, not interpreted: a
:class:`repro.core.wiring.WiringPlan` builds one closure per hop at an
explicit instrumentation tier (``full``/``metrics``/``off``) and
recompiles whenever an observer changes — a span hook is attached or
detached, a tap is added or removed, or an endpoint sink is set.  At
the ``full`` tier (the default) every callback runs under
:func:`repro.core.instrument.acting_as` for the sublayer's own name and
every hop is logged as a crossing, which is what makes the T2/T3 litmus
tests and the C3 tuning benchmark measurements rather than assertions.
"""

from __future__ import annotations

from typing import Any, Callable

from .clock import Clock, ManualClock
from .errors import ConfigurationError
from .instrument import AccessLog, InstrumentedState, NullAccessLog, acting_as
from .interface import BoundPort, InterfaceLog, Notification, NullInterfaceLog
from .metrics import MetricsSink, scoped
from .sublayer import Sublayer
from .wiring import (  # noqa: F401  (APP/WIRE re-exported for callers)
    APP,
    TIER_FULL,
    TIERS,
    WIRE,
    HopCounters,
    TapList,
    WiringPlan,
    validate_tier,
)


class Stack:
    """An ordered composition of sublayers forming one protocol layer."""

    def __init__(
        self,
        name: str,
        sublayers: list[Sublayer],
        clock: Clock | None = None,
        access_log: AccessLog | None = None,
        interface_log: InterfaceLog | None = None,
        metrics: MetricsSink | None = None,
        tier: str = TIER_FULL,
        lossy_delivery: bool = False,
    ):
        """Compose ``sublayers`` (listed top to bottom) into one stack.

        ``tier`` selects the instrumentation level (``full`` keeps the
        access/interface logs live, ``metrics``/``off`` swap in null
        logs); ``lossy_delivery`` marks stacks whose delivery contract
        tolerates loss (the litmus checks consult it).
        """
        if not sublayers:
            raise ConfigurationError("a stack needs at least one sublayer")
        names = [s.name for s in sublayers]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate sublayer names in stack {name!r}")
        validate_tier(tier)
        self.name = name
        self.sublayers: list[Sublayer] = list(sublayers)  # top -> bottom
        self._index: dict[str, Sublayer] = {s.name: s for s in self.sublayers}
        self.clock: Clock = clock if clock is not None else ManualClock()
        # The "real" logs survive tier changes; at the metrics/off tiers
        # the public access_log/interface_log attributes point at null
        # implementations instead (set_tier swaps them back).
        self._full_access_log = access_log if access_log is not None else AccessLog()
        self._full_interface_log = (
            interface_log if interface_log is not None else InterfaceLog()
        )
        self._null_access_log = NullAccessLog()
        self._null_interface_log = NullInterfaceLog()
        self._tier = tier
        if tier == TIER_FULL:
            self.access_log: AccessLog = self._full_access_log
            self.interface_log: InterfaceLog = self._full_interface_log
        else:
            self.access_log = self._null_access_log
            self.interface_log = self._null_interface_log
        self.metrics = metrics
        self.lossy_delivery = lossy_delivery
        self._on_deliver: Callable[..., None] | None = None
        self._on_transmit: Callable[..., None] | None = None
        # Observers of every data-path hop: fn(direction, caller, provider, sdu, meta).
        # Contract monitors and the litmus checker attach here; every
        # mutation recompiles the wiring plan.
        self._taps: TapList = TapList(on_change=self._recompile)
        # Optional span factory: fn(direction, caller, provider, sdu, meta)
        # returning a context manager that brackets the receiving
        # sublayer's processing of the hop.  Installed from outside
        # (repro.obs.SpanTracer.attach); the compiled hops include the
        # span bracket only while a hook is attached.
        self._span_hook: Callable[[str, str, str, Any, dict], Any] | None = None
        # Optional per-traversal latency histogram (any object with an
        # ``observe(seconds)`` method): compiled into the metrics-tier
        # endpoint hops as one perf_counter pair per PDU crossing.
        self._hop_latency: Any | None = None
        self._plan = WiringPlan(self, tier)
        self._wire()

    # ------------------------------------------------------------------
    # Observable configuration — every setter recompiles the plan
    # ------------------------------------------------------------------
    def _recompile(self) -> None:
        plan = getattr(self, "_plan", None)
        if plan is not None:
            plan.compile()

    @property
    def tier(self) -> str:
        """The current instrumentation tier (``full``/``metrics``/``off``)."""
        return self._tier

    @property
    def hop_counters(self) -> HopCounters:
        """Cheap crossing counters, maintained at the ``metrics`` tier."""
        return self._plan.counters

    @property
    def wiring_plan(self) -> WiringPlan:
        """The compiled hop plan this stack currently runs on."""
        return self._plan

    @property
    def taps(self) -> TapList:
        """Observers of every data-path hop (monitors, litmus checks)."""
        return self._taps

    @taps.setter
    def taps(self, value: Any) -> None:
        """Replace the tap list wholesale and recompile the hops."""
        self._taps = TapList(value, on_change=self._recompile)
        self._recompile()

    @property
    def span_hook(self) -> Callable[[str, str, str, Any, dict], Any] | None:
        """The span factory bracketing each hop (``SpanTracer.attach``)."""
        return self._span_hook

    @span_hook.setter
    def span_hook(self, hook: Callable[[str, str, str, Any, dict], Any] | None) -> None:
        """Install (or clear) the span factory and recompile the hops."""
        self._span_hook = hook
        self._recompile()

    @property
    def hop_latency(self) -> Any | None:
        """Wall-clock per-traversal latency sink (``metrics`` tier only).

        Set it to a :class:`repro.obs.Histogram` (anything with
        ``observe(seconds)``) and every PDU crossing of the stack at
        ``tier="metrics"`` is timed with one ``perf_counter`` pair at
        the entry hop.  Wall-clock values are non-deterministic, so
        campaign scenarios leave this off.
        """
        return self._hop_latency

    @hop_latency.setter
    def hop_latency(self, sink: Any | None) -> None:
        """Install (or clear) the latency sink and recompile the hops."""
        self._hop_latency = sink
        self._recompile()

    @property
    def on_transmit(self) -> Callable[..., None] | None:
        """The wire sink the bottom sublayer transmits into."""
        return self._on_transmit

    @on_transmit.setter
    def on_transmit(self, sink: Callable[..., None] | None) -> None:
        """Attach the stack to a wire (link/medium) and recompile."""
        self._on_transmit = sink
        self._recompile()

    @property
    def on_deliver(self) -> Callable[..., None] | None:
        """The application sink the top sublayer delivers into."""
        return self._on_deliver

    @on_deliver.setter
    def on_deliver(self, sink: Callable[..., None] | None) -> None:
        """Attach the application delivery sink and recompile."""
        self._on_deliver = sink
        self._recompile()

    def set_tier(self, tier: str) -> "Stack":
        """Switch instrumentation tier in place and recompile the hops.

        Swaps the access/interface logs between the real instances
        (``full``) and null implementations (``metrics``/``off``) in
        every state container, notification, and port, then recompiles
        the wiring plan.  Hop counters are preserved across switches.
        """
        validate_tier(tier)
        if tier == self._tier:
            return self
        self._tier = tier
        if tier == TIER_FULL:
            self.access_log = self._full_access_log
            self.interface_log = self._full_interface_log
        else:
            self.access_log = self._null_access_log
            self.interface_log = self._null_interface_log
        for sublayer in self.sublayers:
            sublayer.state._log = self.access_log
            for notification in sublayer.notifications.values():
                notification._log = self.interface_log
            if sublayer.below is not None:
                sublayer.below._log = self.interface_log
        self._plan.tier = tier
        self._plan.compile()
        return self

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _wire(self) -> None:
        for sublayer in self.sublayers:
            self._install(sublayer)

        self._wire_control()
        self._plan.compile()

        for sublayer in self.sublayers:
            with acting_as(sublayer.name):
                sublayer.on_attach()

    def _install(self, sublayer: Sublayer) -> None:
        """Give one sublayer its per-stack wiring attributes."""
        sublayer.stack_name = self.name
        sublayer.clock = self.clock
        sublayer.metrics = scoped(self.metrics, f"{self.name}/{sublayer.name}")
        sublayer.state = InstrumentedState(sublayer.name, log=self.access_log)

    def _wire_control(self) -> None:
        """(Re)build the control plane: service ports + notifications.

        Control wiring is computed over the *opaque* sublayers only:
        a :attr:`Sublayer.TRANSPARENT` sublayer sits on the data path
        but offers no service and fires no notifications, so the
        sublayers around it stay control-adjacent — inserting one must
        not sever an existing port binding or notification connection.
        """
        for sublayer in self.sublayers:
            sublayer.below = None
            sublayer.notifications = {
                channel: Notification(channel, sublayer.name, self.interface_log)
                for channel in sublayer.NOTIFICATIONS
            }

        opaque = [s for s in self.sublayers if not s.TRANSPARENT]
        for index, sublayer in enumerate(opaque):
            below = opaque[index + 1] if index + 1 < len(opaque) else None
            if below is None:
                continue
            if below.SERVICE is not None:
                sublayer.below = BoundPort(
                    below.SERVICE,
                    below,
                    below.name,
                    sublayer.name,
                    self.interface_log,
                )
            self._connect_notifications(user=sublayer, provider=below)

    def _connect_notifications(self, user: Sublayer, provider: Sublayer) -> None:
        for channel, notification in provider.notifications.items():
            handler = getattr(user, f"nf_{channel}", None)
            if callable(handler):
                notification.connect(user.name, handler)

    # ------------------------------------------------------------------
    # Application / wire endpoints
    # ------------------------------------------------------------------
    @property
    def top(self) -> Sublayer:
        """The sublayer facing the application."""
        return self.sublayers[0]

    @property
    def bottom(self) -> Sublayer:
        """The sublayer facing the wire."""
        return self.sublayers[-1]

    def sublayer(self, name: str) -> Sublayer:
        """Look up a sublayer by name (ConfigurationError if absent)."""
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError(
                f"no sublayer {name!r} in stack {self.name!r}"
            ) from None

    def send(self, data: Any, **meta: Any) -> None:
        """Application hands data to the top sublayer."""
        self._plan.app_send(data, **meta)

    def receive(self, pdu: Any, **meta: Any) -> None:
        """The wire hands a PDU to the bottom sublayer."""
        self._plan.wire_receive(pdu, **meta)

    # ------------------------------------------------------------------
    def order(self) -> list[str]:
        """Sublayer names, top to bottom (the T1 ordering)."""
        return [s.name for s in self.sublayers]

    def replace(self, old_name: str, new_sublayer: Sublayer) -> "Stack":
        """A new stack with one sublayer swapped out.

        This is the paper's *fungibility* operation (challenge 5): any
        sublayer can be replaced by an implementation honouring the same
        service interface and header contract, without touching the
        others.  The original stack is left untouched; the new stack
        inherits the full wiring configuration — clock, logs, metrics,
        tier, taps, span hook, and both endpoint sinks — so a swap in
        the middle of an instrumented experiment keeps its telemetry.
        """
        replaced = False
        new_layers: list[Sublayer] = []
        for sublayer in self.sublayers:
            if sublayer.name == old_name:
                new_layers.append(new_sublayer)
                replaced = True
            else:
                new_layers.append(sublayer.clone_fresh())
        if not replaced:
            raise ConfigurationError(
                f"no sublayer {old_name!r} to replace in stack {self.name!r}"
            )
        twin = Stack(
            self.name,
            new_layers,
            clock=self.clock,
            access_log=self._full_access_log,
            interface_log=self._full_interface_log,
            metrics=self.metrics,
            tier=self._tier,
            lossy_delivery=self.lossy_delivery,
        )
        twin.taps = list(self._taps)
        twin.span_hook = self._span_hook
        twin.hop_latency = self._hop_latency
        twin.on_transmit = self._on_transmit
        twin.on_deliver = self._on_deliver
        return twin

    def insert(
        self, anchor: str, new_sublayer: Sublayer, where: str = "after"
    ) -> "Stack":
        """Splice an extra sublayer next to ``anchor``, in place.

        Where :meth:`replace` swaps an implementation, ``insert`` adds a
        slot — the sublayering operation behind fault injection
        (:mod:`repro.faults`): the newcomer lands ``"before"`` (above)
        or ``"after"`` (below) the named sublayer, the control plane is
        rewired over the resulting order (transparent sublayers are
        skipped, so an inserted fault never severs a service port or a
        notification connection), and the wiring plan recompiles at the
        current tier.  Existing sublayers keep their state; only the
        newcomer's :meth:`~Sublayer.on_attach` runs.
        """
        if where not in ("before", "after"):
            raise ConfigurationError(
                f"insert position must be 'before' or 'after', got {where!r}"
            )
        if new_sublayer.name in self._index:
            raise ConfigurationError(
                f"duplicate sublayer name {new_sublayer.name!r} "
                f"in stack {self.name!r}"
            )
        position = self.sublayers.index(self.sublayer(anchor))
        if where == "after":
            position += 1
        self._install(new_sublayer)
        self.sublayers.insert(position, new_sublayer)
        self._index[new_sublayer.name] = new_sublayer
        self._wire_control()
        self._plan.compile()
        with acting_as(new_sublayer.name):
            new_sublayer.on_attach()
        return self

    def __repr__(self) -> str:
        return f"Stack({self.name!r}, {' > '.join(self.order())})"

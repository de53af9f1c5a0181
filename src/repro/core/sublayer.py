"""The sublayer abstraction — the paper's unit of decomposition.

A :class:`Sublayer` is one slice of a layer, satisfying the paper's
three litmus tests by construction where possible and by measurement
(see :mod:`repro.core.litmus`) where not:

**T1 (ordered, peer-wise):** sublayers live in a totally ordered
:class:`~repro.core.stack.Stack`; each one improves the service of the
sublayer below and communicates with its *peer* sublayer in another
node by reading exactly the header its peer wrote.

**T2 (narrow interfaces):** a sublayer's only handles on its neighbours
are the data path (``send_down`` / ``deliver_up``), one
:class:`~repro.core.interface.BoundPort` onto the service interface of
the sublayer directly below, and upward
:class:`~repro.core.interface.Notification` channels.  There is no way
to reach a non-adjacent sublayer.

**T3 (separate bits, mechanisms, state):** a sublayer's state lives in
its own :class:`~repro.core.instrument.InstrumentedState`; its header
fields are declared in its own :class:`~repro.core.header.HeaderFormat`
and stripped before the SDU is delivered upward, so other sublayers
never see them.

Subclasses override the ``on_*`` hooks; the wiring attributes
(``state``, ``below``, ``clock`` ...) are installed by the stack before
:meth:`on_attach` runs.
"""

from __future__ import annotations

from typing import Any, Callable

from .clock import Clock
from .errors import ConfigurationError
from .header import HeaderFormat
from .instrument import InstrumentedState
from .interface import BoundPort, Notification, ServiceInterface
from .metrics import NULL_METRICS, MetricsSink
from .pdu import Pdu


class Sublayer:
    """Base class for all sublayers.

    Class attributes subclasses may define:

    ``SERVICE``
        The :class:`ServiceInterface` offered to the sublayer above
        (``None`` if the sublayer offers only the data path).
    ``NOTIFICATIONS``
        Names of upward event channels this sublayer can fire.
    ``HEADER``
        The :class:`HeaderFormat` for this sublayer's peer-to-peer
        header (``None`` for header-less sublayers).
    ``TRANSPARENT``
        ``True`` for sublayers that sit on the data path without taking
        part in the layering contract: they offer no service, own no
        header, and their neighbours must not be able to tell they are
        there.  Control wiring (service ports, notifications) skips
        over transparent sublayers, the litmus adjacency checks treat
        the sublayers around them as adjacent, and the compose-time
        layer-order validation ignores them.  Fault-injection sublayers
        (:mod:`repro.faults`) are the canonical use.
    """

    SERVICE: ServiceInterface | None = None
    NOTIFICATIONS: tuple[str, ...] = ()
    HEADER: HeaderFormat | None = None
    TRANSPARENT: bool = False

    def __init__(self, name: str):
        """Create an unattached sublayer; wiring is installed by ``Stack``."""
        if not name:
            raise ConfigurationError("sublayer name must be non-empty")
        self.name = name
        # Wiring installed by Stack.attach():
        self.state: InstrumentedState = None  # type: ignore[assignment]
        self.below: BoundPort | None = None
        self.clock: Clock = None  # type: ignore[assignment]
        self.metrics: MetricsSink = NULL_METRICS
        self.notifications: dict[str, Notification] = {}
        self._send_down: Callable[[Pdu | Any], None] | None = None
        self._deliver_up: Callable[..., None] | None = None
        self.stack_name: str = "?"

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        """Called once the sublayer is wired into a stack.

        Initialize ``self.state`` fields here.
        """

    def from_above(self, sdu: Any, **meta: Any) -> None:
        """Data arriving from the sublayer above (or the application).

        The default behaviour is transparent pass-through; most
        sublayers override this to wrap the SDU in their header.
        """
        self.send_down(sdu, **meta)

    def from_below(self, pdu: Any, **meta: Any) -> None:
        """Data arriving from the sublayer below (or the wire).

        Override to strip this sublayer's header and act on it.
        """
        self.deliver_up(pdu, **meta)

    # ------------------------------------------------------------------
    # Facilities available to subclasses
    # ------------------------------------------------------------------
    def send_down(self, sdu: Any, **meta: Any) -> None:
        """Hand an SDU/PDU to the sublayer below (data path, downward)."""
        if self._send_down is None:
            raise ConfigurationError(f"sublayer {self.name!r} is not attached")
        self._send_down(sdu, **meta)

    def deliver_up(self, sdu: Any, **meta: Any) -> None:
        """Hand an SDU to the sublayer above (data path, upward)."""
        if self._deliver_up is None:
            raise ConfigurationError(f"sublayer {self.name!r} is not attached")
        self._deliver_up(sdu, **meta)

    def wrap(self, header: dict[str, int], inner: Any) -> Pdu:
        """Build this sublayer's PDU around ``inner``."""
        return Pdu(self.name, self.HEADER, header, inner)

    def count(self, field: str, by: int = 1) -> None:
        """Increment a state counter and mirror it to the metrics sink.

        The counter stays in ``self.state`` (protocol-visible, subject
        to the T3 ownership check like any other state) while the same
        increment reaches whatever metrics backend the stack installed,
        so one bookkeeping site feeds both the litmus instrumentation
        and the observability registry.
        """
        setattr(self.state, field, getattr(self.state, field) + by)
        self.metrics.inc(field, by)

    def notify(self, channel: str, *args: Any, **kwargs: Any) -> Any:
        """Fire an upward notification, if anyone is connected."""
        notification = self.notifications.get(channel)
        if notification is None:
            raise ConfigurationError(
                f"sublayer {self.name!r} declares no notification {channel!r}"
            )
        return notification.fire(*args, **kwargs)

    def clone_fresh(self) -> "Sublayer":
        """A new, unwired instance with the same configuration.

        Used by :meth:`repro.core.stack.Stack.replace` to rebuild the
        unchanged sublayers of a stack.  Subclasses whose constructors
        take configuration beyond ``name`` must override this.
        """
        return type(self)(self.name)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PassthroughSublayer(Sublayer):
    """A sublayer that forwards data unchanged in both directions.

    Useful as a placement holder in litmus experiments and as the base
    for shims that only translate representations.
    """

"""A timer-based connection-management sublayer (Watson, ref [31]).

Section 3's fungibility claim names this exact swap: "one could in
principle seamlessly replace ... connection management (by a
timer-based scheme [31])".  Watson's delta-t protocol observes that if
sequence numbers are guaranteed unique over the maximum segment
lifetime by *time alone*, no SYN handshake is needed: a connection
exists implicitly whenever packets for it are in flight, and its state
simply expires after a quiet interval.

:class:`TimerCmSublayer` implements that discipline behind the exact
``cm-service`` interface of the handshaking CM:

* ``open`` is 0-RTT: the connection is established immediately with a
  timer-derived ISN (:class:`~repro.transport.isn.TimerIsn`); the
  first data segment carries the ISN in the static CM subheader, which
  is how the passive side learns it (implicit connection setup);
* the passive side creates and establishes state on the first data
  segment for a listening port — no SYN, no SYNACK, no HSACK packets
  ever appear on the wire;
* the active side learns the peer's ISN from the CM subheader of the
  first segment flowing back, and tells RD to rebase (RD has received
  nothing yet, so rebasing is sound);
* close keeps the explicit FIN/FINACK exchange (Watson would expire by
  timer; we keep the close signal so the socket API's callbacks are
  scheme-independent), but connection state also expires after a
  quiet interval, delta-t style.

Because the class honours the same service interface, notifications,
and header format, swapping it in is — as the C5 benchmark verifies —
a constructor argument, with every other sublayer untouched.
"""

from __future__ import annotations

from typing import Any

from ...core.errors import ConnectionError_
from ..isn import IsnScheme, TimerIsn
from .cm import CmSublayer, P_ESTABLISHED
from .dm import ConnId
from .headers import CM_NONE


class TimerCmSublayer(CmSublayer):
    """Implicit, 0-RTT connection management with timer-expiry state."""

    def __init__(
        self,
        name: str = "cm",
        isn_scheme: IsnScheme | None = None,
        handshake_timeout: float = 0.2,
        max_retries: int = 8,
        quiet_interval: float = 30.0,
    ):
        super().__init__(
            name,
            isn_scheme if isn_scheme is not None else TimerIsn(),
            handshake_timeout,
            max_retries,
        )
        self.quiet_interval = quiet_interval

    def clone_fresh(self) -> "TimerCmSublayer":
        return TimerCmSublayer(
            self.name, self.isn_scheme, self.handshake_timeout,
            self.max_retries, self.quiet_interval,
        )

    def on_attach(self) -> None:
        super().on_attach()
        self.state.implicit_opens = 0
        self.state.expired = 0

    # ------------------------------------------------------------------
    def _record(self, isn: int, remote_isn: int | None) -> dict:
        return {
            "phase": P_ESTABLISHED,   # timer CM is always established
            "isn": isn,
            "remote_isn": remote_isn,
            "retries": 0,
            "local_fin_offset": None,
            "local_fin_acked": False,
            "remote_fin_rcvd": False,
            "last_activity": self.clock.now(),
        }

    def srv_open(self, conn: ConnId) -> None:
        if conn in self.state.conns:
            raise ConnectionError_(f"connection {conn} already exists")
        assert self.below is not None
        self.below.bind(conn)
        isn = self.isn_scheme.choose(self.clock, (0, conn[0], 0, conn[1]))
        self._put(conn, self._record(isn, remote_isn=None))
        # 0-RTT: established right away; RD/OSR may start sending.
        self.notify("established", conn)
        self._schedule_expiry(conn)

    def srv_get_isns(self, conn: ConnId) -> tuple[int, int | None] | None:
        record = self._get(conn)
        if record is None:
            return None
        # Before the first return packet the peer's ISN is unknown;
        # RD tolerates None and rebases when the value is learned.
        return record["isn"], record["remote_isn"]

    # ------------------------------------------------------------------
    def from_above(self, sdu: Any, conn: ConnId | None = None, **meta: Any) -> None:
        if conn is None:
            raise ConnectionError_("CM needs a conn tag")
        record = self._get(conn)
        if record is None:
            return
        self._touch(conn)
        self.send_down(self.wrap(self._cm_packet(conn, CM_NONE), sdu), conn=conn)

    def _on_data_segment(self, conn: ConnId, values: dict, inner: Any) -> None:
        record = self._get(conn)
        if record is None:
            # Implicit passive open: the first segment for a listening
            # port creates and establishes the connection.
            if conn[0] not in self.state.listening:
                return
            assert self.below is not None
            self.below.bind(conn)
            isn = self.isn_scheme.choose(self.clock, (0, conn[0], 0, conn[1]))
            self._put(conn, self._record(isn, remote_isn=values["isn"]))
            self.state.implicit_opens = self.state.implicit_opens + 1
            self.notify("established", conn)
            self._schedule_expiry(conn)
        elif record["remote_isn"] is None:
            # Active side learning the peer's ISN from the first
            # returning segment: latch and have RD rebase.
            record["remote_isn"] = values["isn"]
            self._put(conn, record)
            self.notify("established", conn)  # re-announce with real ISNs
        self._touch(conn)
        self.deliver_up(inner, conn=conn)

    # Handshake packets never occur; ignore them if a peer sends any.
    def _on_syn(self, conn: ConnId, values: dict) -> None:
        return

    def _on_synack(self, conn: ConnId, values: dict) -> None:
        return

    def _on_hsack(self, conn: ConnId, values: dict) -> None:
        return

    # ------------------------------------------------------------------
    # Delta-t state expiry
    # ------------------------------------------------------------------
    def _touch(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is not None:
            record["last_activity"] = self.clock.now()
            self._put(conn, record)

    def _schedule_expiry(self, conn: ConnId) -> None:
        self.clock.call_later(self.quiet_interval, lambda: self._maybe_expire(conn))

    def _maybe_expire(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None:
            return
        idle = self.clock.now() - record["last_activity"]
        if idle + 1e-9 >= self.quiet_interval:
            conns = self.state.conns
            conns.pop(conn, None)
            self.state.conns = conns
            self.state.expired = self.state.expired + 1
            assert self.below is not None
            self.below.unbind(conn)
            return
        self.clock.call_later(
            self.quiet_interval - idle, lambda: self._maybe_expire(conn)
        )

"""CM — the connection-management sublayer of Fig 5.

"The main service it provides is to establish a pair of Initial
Sequence Numbers ...  Intuitively, CM sets up RD by providing a range
of sequence numbers not present in the network so that segments and
acks can be trusted as not being delayed duplicates."

CM encapsulates the SYN/FIN machinery and the ISN-choosing mechanism
(pluggable: RFC 793 clock, RFC 1948 crypto, Watson timer — the C5
replace experiment swaps these).  Its reliability is the paper's
"bootstrap mechanism": retransmission and timeout of SYNs and FINs,
no windows.  Its narrow upward interface hands RD exactly one thing —
the ISN pair — plus lifecycle notifications; everything else about
sequence numbers is RD's business (T2/T3).

CM is also "initially active and then silent" (Section 7): after the
handshake it merely stamps its static subheader onto passing segments.
"""

from __future__ import annotations

from typing import Any

from ...core.clock import TimerHandle
from ...core.errors import ConfigurationError, ConnectionError_
from ...core.interface import Primitive, ServiceInterface
from ...core.pdu import unwrap
from ...core.sublayer import Sublayer
from ..isn import ClockIsn, IsnScheme
from .dm import ConnId
from .headers import (
    CM_FIN,
    CM_FINACK,
    CM_HEADER,
    CM_HSACK,
    CM_NONE,
    CM_SYN,
    CM_SYNACK,
)

# CM-internal connection phases.
P_SYN_SENT = "SYN_SENT"
P_SYN_RCVD = "SYN_RCVD"
P_ESTABLISHED = "ESTABLISHED"
P_FAILED = "FAILED"


class CmSublayer(Sublayer):
    """SYN/FIN handshakes and ISN establishment."""

    HEADER = CM_HEADER
    SERVICE = ServiceInterface(
        "cm-service",
        [
            Primitive("open", "actively open a connection"),
            Primitive("listen", "passively accept on a port"),
            Primitive("close", "send our FIN at a stream offset"),
            Primitive("get_isns", "the (local, remote) ISN pair"),
        ],
    )
    NOTIFICATIONS = ("established", "peer_closed", "closed", "failed")

    def __init__(
        self,
        name: str = "cm",
        isn_scheme: IsnScheme | None = None,
        handshake_timeout: float = 0.2,
        max_retries: int = 8,
    ):
        super().__init__(name)
        self.isn_scheme = isn_scheme if isn_scheme is not None else ClockIsn()
        self.handshake_timeout = handshake_timeout
        self.max_retries = max_retries
        self._timers: dict[tuple[ConnId, str], TimerHandle] = {}

    def clone_fresh(self) -> "CmSublayer":
        return CmSublayer(
            self.name, self.isn_scheme, self.handshake_timeout, self.max_retries
        )

    def on_attach(self) -> None:
        self.state.conns = {}        # ConnId -> record dict
        self.state.listening = set()
        self.state.syns_sent = 0
        self.state.fins_sent = 0
        # Measurement-side bookkeeping (not protocol state): when each
        # handshake started, for the handshake_latency histogram.
        self._hs_started: dict[ConnId, float] = {}

    # ------------------------------------------------------------------
    # Service primitives (RD calls these)
    # ------------------------------------------------------------------
    def srv_open(self, conn: ConnId) -> None:
        if conn in self.state.conns:
            raise ConnectionError_(f"connection {conn} already exists")
        if self.below is None:
            raise ConfigurationError(
                f"CM sublayer {self.name!r} has no port below "
                f"(not attached above a DM sublayer)"
            )
        self.below.bind(conn)
        isn = self.isn_scheme.choose(self.clock, (0, conn[0], 0, conn[1]))
        self._put(conn, {
            "phase": P_SYN_SENT,
            "isn": isn,
            "remote_isn": None,
            "retries": 0,
            "local_fin_offset": None,
            "local_fin_acked": False,
            "remote_fin_rcvd": False,
        })
        self._hs_started[conn] = self.clock.now()
        self._send_syn(conn)

    def srv_listen(self, port: int) -> None:
        listening = self.state.listening
        listening.add(port)
        self.state.listening = listening
        if self.below is None:
            raise ConfigurationError(
                f"CM sublayer {self.name!r} has no port below "
                f"(not attached above a DM sublayer)"
            )
        self.below.listen(port)

    def srv_close(self, conn: ConnId, final_offset: int) -> None:
        record = self._get(conn)
        if record is None:
            return
        record["local_fin_offset"] = final_offset
        self._put(conn, record)
        self._send_fin(conn)

    def srv_get_isns(self, conn: ConnId) -> tuple[int, int] | None:
        record = self._get(conn)
        if record is None or record["remote_isn"] is None:
            return None
        return record["isn"], record["remote_isn"]

    # ------------------------------------------------------------------
    def _get(self, conn: ConnId) -> dict | None:
        return self.state.conns.get(conn)

    def _put(self, conn: ConnId, record: dict) -> None:
        # In place: O(1) however many connections the host carries.  The
        # re-assignment keeps the one logged write at tier="full".
        conns = self.state.conns
        conns[conn] = record
        self.state.conns = conns

    def _cm_packet(self, conn: ConnId, kind: int, offset: int = 0) -> dict[str, int]:
        record = self._get(conn)
        assert record is not None
        return {
            "kind": kind,
            "isn": record["isn"],
            "ack_isn": record["remote_isn"] or 0,
            "offset": offset,
        }

    # ------------------------------------------------------------------
    # Handshake sends with bootstrap retransmission
    # ------------------------------------------------------------------
    def _send_syn(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["phase"] not in (P_SYN_SENT, P_SYN_RCVD):
            return
        kind = CM_SYN if record["phase"] == P_SYN_SENT else CM_SYNACK
        self.count("syns_sent")
        self.send_down(self.wrap(self._cm_packet(conn, kind), None), conn=conn)
        self._arm(conn, "hs", self._on_hs_timeout)

    def _send_fin(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["local_fin_offset"] is None:
            return
        if record["local_fin_acked"]:
            return
        self.count("fins_sent")
        self.send_down(
            self.wrap(
                self._cm_packet(conn, CM_FIN, offset=record["local_fin_offset"]),
                None,
            ),
            conn=conn,
        )
        self._arm(conn, "fin", self._on_fin_timeout)

    def _arm(self, conn: ConnId, which: str, handler) -> None:
        key = (conn, which)
        existing = self._timers.get(key)
        if existing is not None:
            existing.cancel()
        self._timers[key] = self.clock.call_later(
            self.handshake_timeout, lambda: handler(conn)
        )

    def _cancel(self, conn: ConnId, which: str) -> None:
        timer = self._timers.pop((conn, which), None)
        if timer is not None:
            timer.cancel()

    def _note_established(self, conn: ConnId) -> None:
        """Record open/SYN -> ESTABLISHED latency (virtual time)."""
        started = self._hs_started.pop(conn, None)
        if started is not None:
            self.metrics.observe_hist(
                "handshake_latency", self.clock.now() - started
            )

    def _on_hs_timeout(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["phase"] == P_ESTABLISHED:
            return
        record["retries"] += 1
        self._put(conn, record)
        if record["retries"] > self.max_retries:
            record["phase"] = P_FAILED
            self._put(conn, record)
            self.notify("failed", conn, "handshake timed out")
            return
        self._send_syn(conn)

    def _on_fin_timeout(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["local_fin_acked"]:
            return
        self._send_fin(conn)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def from_above(self, sdu: Any, conn: ConnId | None = None, **meta: Any) -> None:
        if conn is None:
            raise ConnectionError_("CM needs a conn tag")
        record = self._get(conn)
        if record is None or record["phase"] != P_ESTABLISHED:
            return  # RD should not send before `established`; drop
        self.send_down(self.wrap(self._cm_packet(conn, CM_NONE), sdu), conn=conn)

    def from_below(self, pdu: Any, conn: ConnId | None = None, **meta: Any) -> None:
        if conn is None or not hasattr(pdu, "owner") or pdu.owner != self.name:
            return
        values, inner = unwrap(pdu, self.name)
        kind = values["kind"]
        if kind == CM_NONE:
            self._on_data_segment(conn, values, inner)
        elif kind == CM_SYN:
            self._on_syn(conn, values)
        elif kind == CM_SYNACK:
            self._on_synack(conn, values)
        elif kind == CM_HSACK:
            self._on_hsack(conn, values)
        elif kind == CM_FIN:
            self._on_fin(conn, values)
        elif kind == CM_FINACK:
            self._on_finack(conn, values)

    # ------------------------------------------------------------------
    def _on_syn(self, conn: ConnId, values: dict) -> None:
        record = self._get(conn)
        if record is not None:
            # Duplicate SYN: re-answer if we are the passive side.
            if record["phase"] in (P_SYN_RCVD, P_ESTABLISHED) and (
                record["remote_isn"] == values["isn"]
            ):
                self.send_down(
                    self.wrap(self._cm_packet(conn, CM_SYNACK), None), conn=conn
                )
            return
        if conn[0] not in self.state.listening:
            return
        assert self.below is not None
        self.below.bind(conn)
        isn = self.isn_scheme.choose(self.clock, (0, conn[0], 0, conn[1]))
        self._put(conn, {
            "phase": P_SYN_RCVD,
            "isn": isn,
            "remote_isn": values["isn"],
            "retries": 0,
            "local_fin_offset": None,
            "local_fin_acked": False,
            "remote_fin_rcvd": False,
        })
        self._hs_started[conn] = self.clock.now()
        self._send_syn(conn)  # sends SYNACK in SYN_RCVD phase

    def _on_synack(self, conn: ConnId, values: dict) -> None:
        record = self._get(conn)
        if record is None or record["phase"] != P_SYN_SENT:
            if record is not None and record["phase"] == P_ESTABLISHED:
                # our HSACK was lost: repeat it
                self.send_down(
                    self.wrap(self._cm_packet(conn, CM_HSACK), None), conn=conn
                )
            return
        if values["ack_isn"] != record["isn"]:
            return  # not acking our SYN
        record["remote_isn"] = values["isn"]
        record["phase"] = P_ESTABLISHED
        self._put(conn, record)
        self._cancel(conn, "hs")
        self._note_established(conn)
        self.send_down(self.wrap(self._cm_packet(conn, CM_HSACK), None), conn=conn)
        self.notify("established", conn)

    def _on_hsack(self, conn: ConnId, values: dict) -> None:
        record = self._get(conn)
        if record is None or record["phase"] != P_SYN_RCVD:
            return
        if values["ack_isn"] != record["isn"]:
            return
        record["phase"] = P_ESTABLISHED
        self._put(conn, record)
        self._cancel(conn, "hs")
        self._note_established(conn)
        self.notify("established", conn)

    def _on_data_segment(self, conn: ConnId, values: dict, inner: Any) -> None:
        record = self._get(conn)
        if record is None:
            return
        if record["phase"] == P_SYN_RCVD and values["isn"] == record["remote_isn"]:
            # Data implies the peer got our SYNACK but our view of its
            # HSACK was lost: promote, as standard TCP does.
            record["phase"] = P_ESTABLISHED
            self._put(conn, record)
            self._cancel(conn, "hs")
            self._note_established(conn)
            self.notify("established", conn)
        if self._get(conn)["phase"] != P_ESTABLISHED:
            return
        self.deliver_up(inner, conn=conn)

    def _on_fin(self, conn: ConnId, values: dict) -> None:
        record = self._get(conn)
        if record is None:
            return
        self.send_down(
            self.wrap(
                self._cm_packet(conn, CM_FINACK, offset=values["offset"]), None
            ),
            conn=conn,
        )
        if not record["remote_fin_rcvd"]:
            record["remote_fin_rcvd"] = True
            self._put(conn, record)
            self.notify("peer_closed", conn, values["offset"])

    def _on_finack(self, conn: ConnId, values: dict) -> None:
        record = self._get(conn)
        if record is None or record["local_fin_offset"] is None:
            return
        if values["offset"] != record["local_fin_offset"]:
            return
        if not record["local_fin_acked"]:
            record["local_fin_acked"] = True
            self._put(conn, record)
            self._cancel(conn, "fin")
            self.notify("closed", conn)

"""The RFC 793 interoperability shim (Section 3.1, challenge 2).

"Adding a shim sublayer that converts the sublayered header in Figure
6 to a standard TCP header, together with replicating all existing TCP
functionality in some sublayer, should allow interoperability."

:class:`Rfc793Shim` sits below DM.  Outbound, it flattens the nested
native header (DM | CM | RD | OSR) into one standard
:class:`~repro.transport.rfc793.TcpSegment`; inbound, it expands a
standard segment into the native unit(s).  The mapping is the
isomorphism Section 3.1 claims:

====================  =========================================
native field           RFC 793 field
====================  =========================================
dm.sport / dm.dport    sport / dport
cm.kind = SYN          SYN flag, seq = cm.isn
cm.kind = SYNACK       SYN|ACK, seq = cm.isn, ack = cm.ack_isn+1
cm.kind = HSACK        pure ACK, seq = isn+1, ack = ack_isn+1
cm.kind = FIN          FIN|ACK, seq = isn+1+offset
cm.kind = FINACK       pure ACK, ack = ack_isn+1+offset+1
rd.seq / rd.ack        seq / ack (identical numbering: isn+1+offset)
osr.wnd                window
osr.ecn                ECE/CWR bits
====================  =========================================

Because a standard segment bundles what the native format splits into
separate packets, one inbound segment can expand to *several* native
units (a pure ACK is simultaneously a possible handshake ACK, an RD
cumulative ack, an OSR window update, and a possible FIN ack); each
native sublayer simply ignores the interpretations that don't apply —
the "replicating functionality" cost the paper anticipates.

The shim keeps per-connection translation state (the ISNs, the FIN
positions, the last advertised window): small, local, and invisible to
every other sublayer, so interop is a one-sublayer change (T3).
"""

from __future__ import annotations

from typing import Any

from ...core.pdu import Pdu, unwrap
from ...core.shim import ShimSublayer
from ..rfc793 import TcpSegment
from ..seqspace import fold
from .dm import ConnId
from .headers import (
    CM_FIN,
    CM_FINACK,
    CM_HEADER,
    CM_HSACK,
    CM_NONE,
    CM_SYN,
    CM_SYNACK,
    DM_HEADER,
    OSR_CTL_UPDATE,
    OSR_HEADER,
    RD_HEADER,
)

DEFAULT_WINDOW = 0xFFFF


class Rfc793Shim(ShimSublayer):
    """Bidirectional native <-> RFC 793 translation."""

    def __init__(self, name: str = "shim"):
        super().__init__(name)

    def on_attach(self) -> None:
        self.state.conns = {}      # ConnId (local view) -> translation state
        self.state.encoded = 0
        self.state.decoded = 0

    def _rec(self, conn: ConnId) -> dict:
        conns = self.state.conns
        if conn not in conns:
            conns[conn] = {
                "local_isn": None,
                "remote_isn": None,
                "last_wnd_out": DEFAULT_WINDOW,
                "last_ack_out": 0,        # last rd.ack we sent (wire value)
                "last_seq_out": 0,        # our next wire seq (for pure acks)
                "local_fin_offset": None,
                "remote_fin_offset": None,
            }
            self.state.conns = conns
        return conns[conn]

    def seed_connection(
        self, conn: ConnId, local_isn: int, remote_isn: int
    ) -> None:
        """Install translation state for an already-established
        connection (used by analyses that exercise the shim outside a
        full handshake)."""
        self._rec(conn)
        self._update(conn, local_isn=local_isn, remote_isn=remote_isn)

    def _update(self, conn: ConnId, **changes: Any) -> None:
        conns = self.state.conns
        conns[conn].update(changes)
        self.state.conns = conns

    # ==================================================================
    # Outbound: native nested Pdu -> one standard segment
    # ==================================================================
    def encode(self, pdu: Any) -> Any:
        if not isinstance(pdu, Pdu) or pdu.owner != "dm":
            return pdu  # already foreign (shouldn't happen)
        dm, inner = unwrap(pdu, "dm")
        conn: ConnId = (dm["sport"], dm["dport"])  # local view
        record = self._rec(conn)
        cm, inner2 = unwrap(inner, "cm")
        kind = cm["kind"]
        self.state.encoded = self.state.encoded + 1

        header: dict[str, int] = {"sport": dm["sport"], "dport": dm["dport"]}
        payload = b""

        if kind == CM_SYN:
            self._update(conn, local_isn=cm["isn"])
            header.update(seq=cm["isn"], window=DEFAULT_WINDOW, syn=1)
        elif kind == CM_SYNACK:
            header.update(
                seq=cm["isn"],
                ack=fold(cm["ack_isn"] + 1),
                ack_flag=1,
                syn=1,
                window=record["last_wnd_out"],
            )
            self._update(
                conn,
                local_isn=cm["isn"],
                remote_isn=cm["ack_isn"],
                last_ack_out=header["ack"],
                last_seq_out=fold(cm["isn"] + 1),
            )
        elif kind == CM_HSACK:
            header.update(
                seq=fold(cm["isn"] + 1),
                ack=fold(cm["ack_isn"] + 1),
                ack_flag=1,
                window=record["last_wnd_out"],
            )
            self._update(
                conn,
                local_isn=cm["isn"],
                remote_isn=cm["ack_isn"],
                last_ack_out=header["ack"],
                last_seq_out=header["seq"],
            )
        elif kind == CM_FIN:
            self._update(conn, local_fin_offset=cm["offset"])
            header.update(
                seq=fold(cm["isn"] + 1 + cm["offset"]),
                ack=record["last_ack_out"],
                ack_flag=1,
                fin=1,
                window=record["last_wnd_out"],
            )
        elif kind == CM_FINACK:
            # Standard TCP acks are cumulative: acking the peer's FIN
            # (fin_seq + 1) implicitly acks every data byte before it.
            # Native CM acknowledges the FIN as soon as it sees it —
            # data completeness is RD's business — so the shim may only
            # emit the full FIN ack once the RD-level cumulative ack
            # has reached the FIN offset; until then it degrades to a
            # duplicate ack, and the peer's FIN retransmission will
            # re-trigger CM's FINACK later.
            fin_seq = fold(cm["ack_isn"] + 1 + cm["offset"])
            data_covered = record["last_ack_out"] == fin_seq
            ack_value = fold(fin_seq + 1) if data_covered else record["last_ack_out"]
            header.update(
                seq=record["last_seq_out"],
                ack=ack_value,
                ack_flag=1,
                window=record["last_wnd_out"],
            )
            self._update(conn, last_ack_out=header["ack"])
        elif kind == CM_NONE:
            rd, inner3 = unwrap(inner2, "rd")
            header.update(seq=rd["seq"], ack=rd["ack"], ack_flag=rd["is_ack"])
            self._update(
                conn,
                last_ack_out=rd["ack"],
                last_seq_out=rd["seq"],
            )
            if rd["has_data"] and inner3 is not None:
                osr, data = unwrap(inner3, "osr")
                header.update(
                    window=osr["wnd"],
                    ece=osr["ecn"] & 1,
                    cwr=(osr["ecn"] >> 1) & 1,
                )
                self._update(conn, last_wnd_out=osr["wnd"])
                payload = bytes(data) if data else b""
                header["psh"] = int(bool(payload))
            else:
                header["window"] = self._rec(conn)["last_wnd_out"]
        else:
            return None
        return TcpSegment(header=header, payload=payload)

    # ==================================================================
    # Inbound: one standard segment -> native unit(s)
    # ==================================================================
    def from_below(self, wire: Any, **meta: Any) -> None:
        for unit in self.decode_all(wire):
            self.deliver_up(unit, **meta)

    def decode(self, wire: Any) -> Any:
        units = self.decode_all(wire)
        return units[0] if units else None

    def decode_all(self, wire: Any) -> list[Pdu]:
        if isinstance(wire, Pdu):
            return [wire]  # already native (peer is sublayered too)
        if not isinstance(wire, TcpSegment):
            return []
        self.state.decoded = self.state.decoded + 1
        seg = wire
        conn: ConnId = (seg.dport, seg.sport)  # local view
        record = self._rec(conn)

        def dm_wrap(inner: Pdu) -> Pdu:
            # Peer's perspective: source is the remote port.
            return Pdu(
                "dm", DM_HEADER, {"sport": seg.sport, "dport": seg.dport}, inner
            )

        def cm_pdu(kind: int, inner: Any = None, offset: int = 0) -> Pdu:
            return Pdu("cm", CM_HEADER, {
                "kind": kind,
                "isn": record["remote_isn"] or 0,
                "ack_isn": record["local_isn"] or 0,
                "offset": offset,
            }, inner)

        units: list[Pdu] = []

        if seg.syn and not seg.has_ack:
            self._update(conn, remote_isn=seg.seq)
            record = self._rec(conn)
            units.append(dm_wrap(Pdu("cm", CM_HEADER, {
                "kind": CM_SYN, "isn": seg.seq, "ack_isn": 0, "offset": 0,
            }, None)))
            return units

        if seg.syn and seg.has_ack:
            self._update(
                conn, remote_isn=seg.seq, local_isn=fold(seg.ack - 1)
            )
            record = self._rec(conn)
            units.append(dm_wrap(Pdu("cm", CM_HEADER, {
                "kind": CM_SYNACK,
                "isn": seg.seq,
                "ack_isn": fold(seg.ack - 1),
                "offset": 0,
            }, None)))
            return units

        if record["remote_isn"] is None and record["local_isn"] is None:
            return []  # mid-stream segment for an unknown connection

        # A plain segment is several native packets at once.

        # 1. The handshake ACK interpretation (harmless if established).
        if seg.has_ack and not seg.payload:
            units.append(dm_wrap(cm_pdu(CM_HSACK)))

        # 2. The FIN interpretation.
        if seg.fin:
            remote_base = (record["remote_isn"] or 0) + 1
            fin_offset = (seg.seq + len(seg.payload) - remote_base) % (1 << 32)
            self._update(conn, remote_fin_offset=fin_offset)
            units.append(dm_wrap(cm_pdu(CM_FIN, offset=fin_offset)))

        # 3. The FIN-ack interpretation: the peer acked our FIN.
        if (
            seg.has_ack
            and record["local_fin_offset"] is not None
            and record["local_isn"] is not None
            and seg.ack == fold(
                record["local_isn"] + 1 + record["local_fin_offset"] + 1
            )
        ):
            units.append(
                dm_wrap(cm_pdu(CM_FINACK, offset=record["local_fin_offset"]))
            )

        # 4. The RD interpretation: data and/or cumulative ack, wrapped
        #    in a static CM data header.
        osr_header = {
            "wnd": seg.window,
            "ecn": seg.header["ece"] | (seg.header["cwr"] << 1),
            "ctl": OSR_CTL_UPDATE if not seg.payload else 0,
        }
        rd_values = {
            "seq": seg.seq,
            "ack": seg.ack,
            "has_data": int(bool(seg.payload)),
            "is_ack": int(seg.has_ack),
            "sack_left": 0,
            "sack_right": 0,
        }
        if seg.payload:
            inner: Any = Pdu("osr", OSR_HEADER, osr_header, bytes(seg.payload))
        else:
            # Pure ack: also deliver the window update to OSR as a
            # zero-length control segment.
            inner = Pdu("osr", OSR_HEADER, osr_header, b"")
            rd_values["has_data"] = 1  # zero-length: RD passes it through
        units.append(dm_wrap(cm_pdu(CM_NONE, Pdu("rd", RD_HEADER, rd_values, inner))))
        return units

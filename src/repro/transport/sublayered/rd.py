"""RD — the reliable-delivery sublayer of Fig 5.

"RD uses the ISNs supplied by the lower connection management layer to
reliably (i.e., exactly once) deliver segments given by the upper
layer (OSR).  OSR gives RD a segment identified by its byte offset,
and RD translates this to segment sequence numbers (by adding the
ISN).  RD uses retransmissions to ensure the segment will eventually
reach the receiver.  All details of retransmission, including keeping
track of a window of outstanding packets are encapsulated in RD; if
Selective Acknowledgement is used, the SACK options are also processed
by this sublayer."

Concretely: exactly-once, *unordered* delivery of byte-offset-
identified segments, with cumulative acks plus one SACK range,
RTT-adaptive timeouts (Karn's rule), duplicate-ack fast retransmit,
and upward loss summaries — "other congestion signals such as timeouts
and loss information should be summarized and passed by RD to OSR".

Sequence numbers are ``isn + 1 + offset``, exactly TCP's data
numbering, which is what makes the interop shim's translation exact.
"""

from __future__ import annotations

from typing import Any

from ...core.clock import TimerHandle
from ...core.errors import ConnectionError_
from ...core.interface import Primitive, ServiceInterface
from ...core.pdu import Pdu, unwrap
from ...core.sublayer import Sublayer
from ..seqspace import fold, unfold
from .dm import ConnId
from .headers import RD_HEADER


def segment_length(inner: Any) -> int:
    """Payload bytes of a segment's inner unit (wire-visible length)."""
    if isinstance(inner, Pdu):
        payload = inner.payload()
        return len(payload) if isinstance(payload, (bytes, bytearray)) else 0
    if isinstance(inner, (bytes, bytearray)):
        return len(inner)
    return 0


class RdSublayer(Sublayer):
    """Exactly-once segment delivery over CM's ISN service."""

    HEADER = RD_HEADER
    SERVICE = ServiceInterface(
        "rd-service",
        [
            Primitive("open", "open a connection (forwarded to CM)"),
            Primitive("listen", "listen on a port (forwarded to CM)"),
            Primitive("send", "transmit one byte-offset-identified segment"),
            Primitive("close", "close once the stream is fully acked"),
        ],
    )
    NOTIFICATIONS = (
        "established",
        "acked",
        "loss",
        "peer_closed",
        "closed",
        "failed",
    )

    def __init__(
        self,
        name: str = "rd",
        rto_initial: float = 0.2,
        rto_min: float = 0.05,
        rto_max: float = 10.0,
        dupack_threshold: int = 3,
        sack_enabled: bool = True,
    ):
        super().__init__(name)
        self.rto_initial = rto_initial
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.dupack_threshold = dupack_threshold
        #: The paper: "if Selective Acknowledgement is used, the SACK
        #: options are also processed by this sublayer" — a mechanism
        #: choice entirely internal to RD.  The X2 ablation benchmark
        #: measures what it buys.
        self.sack_enabled = sack_enabled
        self._timers: dict[ConnId, TimerHandle] = {}

    def clone_fresh(self) -> "RdSublayer":
        return RdSublayer(
            self.name, self.rto_initial, self.rto_min, self.rto_max,
            self.dupack_threshold, self.sack_enabled,
        )

    def on_attach(self) -> None:
        self.state.conns = {}
        self.state.segments_sent = 0
        self.state.retransmitted = 0
        self.state.acks_sent = 0
        self.state.duplicates_dropped = 0

    # ------------------------------------------------------------------
    def _get(self, conn: ConnId) -> dict | None:
        return self.state.conns.get(conn)

    def _put(self, conn: ConnId, record: dict) -> None:
        # In place: O(1) however many connections the host carries.  The
        # re-assignment keeps the one logged write at tier="full".
        conns = self.state.conns
        conns[conn] = record
        self.state.conns = conns

    def _new_record(self, isn: int, remote_isn: int | None) -> dict:
        """``remote_isn`` may be None under 0-RTT connection management
        (TimerCmSublayer): the peer's ISN is unknown until the first
        returning segment, at which point CM re-announces and
        :meth:`nf_established` rebases."""
        return {
            "isn": isn,
            "remote_isn": remote_isn,
            # sender side
            "outstanding": {},     # offset -> (inner pdu, length)
            "sacked": set(),
            "acked_through": 0,    # bytes cumulatively acked
            "dupacks": 0,
            "srtt": None,
            "rttvar": 0.0,
            "rto": self.rto_initial,
            "rtt_offset": None,
            "rtt_start": 0.0,
            "pending_close": None,  # final_offset awaiting full ack
            "recovery_until": 0,   # NewReno recover point (loss episode)
            # receiver side
            "rcv_nxt": 0,          # bytes cumulatively received
            "rcv_ooo": {},         # offset -> length (already delivered up)
            "peer_fin_offset": None,
            "peer_close_notified": False,
        }

    # ------------------------------------------------------------------
    # Service primitives (OSR calls these)
    # ------------------------------------------------------------------
    def srv_open(self, conn: ConnId) -> None:
        assert self.below is not None
        self.below.open(conn)

    def srv_listen(self, port: int) -> None:
        assert self.below is not None
        self.below.listen(port)

    def srv_send(self, conn: ConnId, offset: int, segment: Any) -> None:
        record = self._get(conn)
        if record is None:
            raise ConnectionError_(f"RD has no established connection {conn}")
        length = segment_length(segment)
        if length == 0:
            # Zero-length segments carry no stream bytes: they are OSR
            # control traffic (window updates, probes) and ride RD
            # unreliably — no tracking, no retransmission, no ack.
            self._transmit(conn, offset, segment)
            return
        record["outstanding"][offset] = (segment, length)
        self._put(conn, record)
        self.count("segments_sent")
        self._transmit(conn, offset, segment)
        self._arm(conn)
        if record["rtt_offset"] is None:
            record = self._get(conn)
            record["rtt_offset"] = offset
            record["rtt_start"] = self.clock.now()
            self._put(conn, record)

    def srv_close(self, conn: ConnId, final_offset: int) -> None:
        record = self._get(conn)
        if record is None:
            return
        record["pending_close"] = final_offset
        self._put(conn, record)
        self._maybe_complete_close(conn)

    # ------------------------------------------------------------------
    # Notifications from CM, re-raised upward
    # ------------------------------------------------------------------
    def nf_established(self, conn: ConnId) -> None:
        assert self.below is not None
        isns = self.below.get_isns(conn)
        if isns is None:
            return
        local_isn, remote_isn = isns
        record = self._get(conn)
        if record is None:
            self._put(conn, self._new_record(local_isn, remote_isn))
        elif record["remote_isn"] is None and remote_isn is not None:
            # 0-RTT rebase: CM just learned the peer's ISN.  Sound only
            # while the receive side is untouched, which CM guarantees
            # by re-announcing before delivering the first segment.
            if record["rcv_nxt"] == 0 and not record["rcv_ooo"]:
                record["remote_isn"] = remote_isn
                self._put(conn, record)
        self.notify("established", conn)

    def nf_peer_closed(self, conn: ConnId, fin_offset: int) -> None:
        record = self._get(conn)
        if record is None:
            return
        record["peer_fin_offset"] = fin_offset
        self._put(conn, record)
        self._maybe_notify_peer_closed(conn)

    def nf_closed(self, conn: ConnId) -> None:
        self.notify("closed", conn)

    def nf_failed(self, conn: ConnId, reason: str) -> None:
        self.notify("failed", conn, reason)

    # ------------------------------------------------------------------
    # Wire encoding
    # ------------------------------------------------------------------
    def _transmit(self, conn: ConnId, offset: int, segment: Any) -> None:
        record = self._get(conn)
        assert record is not None
        remote_known = record["remote_isn"] is not None
        header = {
            "seq": fold(record["isn"] + 1 + offset),
            "ack": (
                fold(record["remote_isn"] + 1 + record["rcv_nxt"])
                if remote_known else 0
            ),
            "has_data": 1,
            # Until the peer's ISN is known (0-RTT opens) our ack field
            # is meaningless; flag it invalid so the peer ignores it.
            "is_ack": int(remote_known),
        }
        header.update(self._sack_fields(record))
        self.send_down(self.wrap(header, segment), conn=conn)

    def _send_pure_ack(self, conn: ConnId) -> None:
        record = self._get(conn)
        assert record is not None
        header = {
            "seq": fold(record["isn"] + 1 + self._send_offset(record)),
            "ack": fold(record["remote_isn"] + 1 + record["rcv_nxt"]),
            "has_data": 0,
            "is_ack": 1,
        }
        header.update(self._sack_fields(record))
        self.count("acks_sent")
        self.send_down(self.wrap(header, None), conn=conn)

    def _send_offset(self, record: dict) -> int:
        """Our current send position (for the seq of pure acks)."""
        outstanding = record["outstanding"]
        if outstanding:
            top = max(outstanding)
            return top + outstanding[top][1]
        return record["acked_through"]

    def _sack_fields(self, record: dict) -> dict[str, int]:
        """The first out-of-order run, as absolute sequence numbers."""
        ooo = record["rcv_ooo"]
        if not ooo or record["remote_isn"] is None or not self.sack_enabled:
            return {"sack_left": 0, "sack_right": 0}
        start = min(ooo)
        end = start
        while end in ooo:
            end += ooo[end]
        base = record["remote_isn"] + 1
        return {"sack_left": fold(base + start), "sack_right": fold(base + end)}

    # ------------------------------------------------------------------
    # Data path up
    # ------------------------------------------------------------------
    def from_below(self, pdu: Any, conn: ConnId | None = None, **meta: Any) -> None:
        if conn is None or not hasattr(pdu, "owner") or pdu.owner != self.name:
            return
        record = self._get(conn)
        if record is None:
            return
        values, inner = unwrap(pdu, self.name)
        if values["is_ack"]:
            self._process_ack(conn, values)
        if values["has_data"]:
            self._process_segment(conn, values, inner)

    @staticmethod
    def _slice_unit(inner: Any, start: int, end: int) -> Any:
        """A copy of a segment unit covering only bytes [start, end).

        Byte ranges are RD's own vocabulary (its sequence numbers
        count bytes, exactly like TCP's), so trimming a segment to the
        yet-unreceived range is an RD mechanism — needed when a peer
        re-segments on retransmission, as standard TCPs do.  The inner
        structure (an OSR pdu or raw bytes) is treated as an opaque
        byte carrier: headers are copied untouched.
        """
        if isinstance(inner, Pdu):
            payload = inner.payload()
            return Pdu(
                inner.owner, inner.format, dict(inner.header),
                bytes(payload[start:end]),
            )
        return bytes(inner[start:end])

    def _process_segment(self, conn: ConnId, values: dict, inner: Any) -> None:
        record = self._get(conn)
        assert record is not None
        if record["remote_isn"] is None:
            return  # cannot anchor sequence numbers yet; peer resends
        base = record["remote_isn"] + 1
        offset = unfold(base + record["rcv_nxt"], values["seq"]) - base
        length = segment_length(inner)
        if length == 0:
            # OSR control traffic: pass through, no dedup, no ack.
            self.deliver_up(inner, conn=conn, offset=offset)
            return

        # Coverage bookkeeping: deliver exactly the byte ranges of this
        # segment not already received, trimming as needed (peers that
        # re-segment on retransmission produce partial overlaps).
        covered: list[tuple[int, int]] = [(0, record["rcv_nxt"])]
        covered += [(o, o + n) for o, n in record["rcv_ooo"].items()]
        covered.sort()
        fresh: list[tuple[int, int]] = []
        cursor = offset
        end = offset + length
        for c_start, c_end in covered:
            if c_end <= cursor:
                continue
            if c_start >= end:
                break
            if c_start > cursor:
                fresh.append((cursor, min(c_start, end)))
            cursor = max(cursor, c_end)
            if cursor >= end:
                break
        if cursor < end:
            fresh.append((cursor, end))

        if not fresh:
            self.count("duplicates_dropped")
            self._send_pure_ack(conn)
            return

        ooo = record["rcv_ooo"]
        for f_start, f_end in fresh:
            ooo[f_start] = f_end - f_start
        # merge adjacent ooo ranges and advance rcv_nxt
        merged: dict[int, int] = {}
        rcv_nxt = record["rcv_nxt"]
        for o in sorted(ooo):
            n = ooo[o]
            if o <= rcv_nxt:
                rcv_nxt = max(rcv_nxt, o + n)
                continue
            last = max(merged) if merged else None
            if last is not None and last + merged[last] >= o:
                merged[last] = max(merged[last], o + n - last)
            else:
                merged[o] = n
        # ranges swallowed by the new rcv_nxt
        merged = {
            o: n for o, n in merged.items() if o + n > rcv_nxt
        }
        record["rcv_nxt"] = rcv_nxt
        record["rcv_ooo"] = merged
        self._put(conn, record)

        # Exactly-once, possibly out-of-order delivery of the fresh
        # byte ranges to OSR.
        for f_start, f_end in fresh:
            unit = (
                inner
                if (f_start, f_end) == (offset, end)
                else self._slice_unit(inner, f_start - offset, f_end - offset)
            )
            self.deliver_up(unit, conn=conn, offset=f_start)
        self._send_pure_ack(conn)
        self._maybe_notify_peer_closed(conn)

    def _maybe_notify_peer_closed(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["peer_close_notified"]:
            return
        fin_offset = record["peer_fin_offset"]
        if fin_offset is None:
            return
        if record["rcv_nxt"] >= fin_offset and not record["rcv_ooo"]:
            record["peer_close_notified"] = True
            self._put(conn, record)
            self.notify("peer_closed", conn, fin_offset)

    # ------------------------------------------------------------------
    # Ack processing
    # ------------------------------------------------------------------
    def _process_ack(self, conn: ConnId, values: dict) -> None:
        record = self._get(conn)
        assert record is not None
        base = record["isn"] + 1
        acked_through = unfold(base + record["acked_through"], values["ack"]) - base
        advanced = acked_through > record["acked_through"]
        newly_acked: list[tuple[int, int, bool]] = []  # (offset, len, sacked)
        outstanding, sacked = record["outstanding"], record["sacked"]

        if advanced:
            for offset in sorted(outstanding):
                seg, length = outstanding[offset]
                if offset + length <= acked_through:
                    del outstanding[offset]
                    was_sacked = offset in sacked
                    sacked.discard(offset)
                    if not was_sacked:
                        # already notified when it was SACKed; a second
                        # notification would make OSR's flight
                        # accounting underflow
                        newly_acked.append((offset, length, False))
            record["acked_through"] = acked_through
            record["dupacks"] = 0
            if record["rtt_offset"] is not None and (
                record["rtt_offset"] < acked_through
            ):
                self._rtt_sample(record, self.clock.now() - record["rtt_start"])
                record["rtt_offset"] = None
            elif record["srtt"] is not None:
                # Forward progress collapses any exponential backoff
                # back to the estimate (as real TCPs do) — otherwise a
                # long SACK-repaired recovery leaves the timer inflated.
                record["rto"] = min(
                    max(
                        record["srtt"] + 4 * record["rttvar"], self.rto_min
                    ),
                    self.rto_max,
                )
        elif acked_through == record["acked_through"] and outstanding:
            record["dupacks"] += 1

        # SACK: segments inside the advertised range leave the flight.
        sack_left, sack_right = values["sack_left"], values["sack_right"]
        if self.sack_enabled and sack_right != sack_left:
            left = unfold(base + record["acked_through"], sack_left) - base
            right = unfold(base + record["acked_through"], sack_right) - base
            for offset in sorted(outstanding):
                seg, length = outstanding[offset]
                if left <= offset and offset + length <= right and (
                    offset not in sacked
                ):
                    sacked.add(offset)
                    newly_acked.append((offset, length, True))

        dupacks, srtt = record["dupacks"], record["srtt"]
        self._put(conn, record)

        for offset, length, sacked_flag in newly_acked:
            self.notify(
                "acked", conn, offset, length, rtt=srtt, sacked=sacked_flag,
            )

        if dupacks == self.dupack_threshold:
            self._enter_recovery(conn)
            self._retransmit_earliest(conn)
            self.notify("loss", conn, "dupack")

        if advanced:
            # NewReno-style partial-ack recovery: while inside a loss
            # episode (acked_through has not yet passed the recover
            # point set when the loss was detected), a cumulative
            # advance that leaves SACKed data above an un-acked hole
            # exposes the next loss — retransmit it immediately rather
            # than waiting out a full RTO.  One hole per RTT.  Outside
            # an episode (e.g. transient reordering), do nothing.
            record = self._get(conn)
            in_recovery = record["acked_through"] < record["recovery_until"]
            if in_recovery and record["sacked"]:
                highest_sacked = max(record["sacked"])
                holes = [
                    o for o in record["outstanding"]
                    if o not in record["sacked"] and o < highest_sacked
                ]
                if holes:
                    self._retransmit_earliest(conn)
            self._rearm_or_cancel(conn)
            self._maybe_complete_close(conn)

    def _maybe_complete_close(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["pending_close"] is None:
            return
        if not record["outstanding"]:
            # Everything cumulatively acked: hand the FIN to CM.
            assert self.below is not None
            final_offset = record["pending_close"]
            record["pending_close"] = None
            self._put(conn, record)
            self.below.close(conn, final_offset)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _arm(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None:
            return
        existing = self._timers.get(conn)
        if existing is not None and not existing.cancelled:
            return
        self._timers[conn] = self.clock.call_later(
            record["rto"], lambda: self._on_timeout(conn)
        )

    def _rearm_or_cancel(self, conn: ConnId) -> None:
        timer = self._timers.pop(conn, None)
        if timer is not None:
            timer.cancel()
        record = self._get(conn)
        if record is not None and record["outstanding"]:
            self._timers[conn] = self.clock.call_later(
                record["rto"], lambda: self._on_timeout(conn)
            )

    def _on_timeout(self, conn: ConnId) -> None:
        self._timers.pop(conn, None)
        record = self._get(conn)
        if record is None or not record["outstanding"]:
            return
        record["rto"] = min(record["rto"] * 2, self.rto_max)
        record["rtt_offset"] = None  # Karn
        self._put(conn, record)
        self._enter_recovery(conn)
        self._retransmit_earliest(conn)
        self.notify("loss", conn, "timeout")
        self._arm(conn)

    def _enter_recovery(self, conn: ConnId) -> None:
        """Mark the current highest outstanding byte as the recover
        point: partial-ack retransmissions run until the cumulative ack
        passes it (RFC 6582's structure)."""
        record = self._get(conn)
        if record is None or not record["outstanding"]:
            return
        top = max(record["outstanding"])
        end = top + record["outstanding"][top][1]
        if end > record["recovery_until"]:
            record["recovery_until"] = end
            self._put(conn, record)

    def _retransmit_earliest(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None:
            return
        candidates = [
            o for o in record["outstanding"] if o not in record["sacked"]
        ]
        if not candidates:
            return
        offset = min(candidates)
        segment, _length = record["outstanding"][offset]
        if record["rtt_offset"] == offset:
            # Karn's rule applies to fast/partial-ack retransmissions
            # too: a sample spanning a retransmission is meaningless.
            record["rtt_offset"] = None
            self._put(conn, record)
        self.count("retransmitted")
        self._transmit(conn, offset, segment)

    def _rtt_sample(self, record: dict, sample: float) -> None:
        if record["srtt"] is None:
            record["srtt"] = sample
            record["rttvar"] = sample / 2
        else:
            record["rttvar"] = 0.75 * record["rttvar"] + 0.25 * abs(
                record["srtt"] - sample
            )
            record["srtt"] = 0.875 * record["srtt"] + 0.125 * sample
        record["rto"] = min(
            max(record["srtt"] + 4 * record["rttvar"], self.rto_min),
            self.rto_max,
        )

    # ------------------------------------------------------------------
    def flight_bytes(self, conn: ConnId) -> int:
        """Unacked, un-SACKed bytes in the network (OSR reads this via
        the acked notifications; exposed for tests and analysis)."""
        record = self._get(conn)
        if record is None:
            return 0
        return sum(
            length
            for offset, (_seg, length) in record["outstanding"].items()
            if offset not in record["sacked"]
        )

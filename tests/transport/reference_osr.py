"""A frozen copy of OSR from before it trimmed its send buffer.

This ``OsrSublayer`` kept every byte a connection ever sent in
``record["stream"]`` and copied each connection record on every update.
The live OSR keeps only the bytes it has not released to RD and updates
records in place; ``test_osr_differential.py`` holds the two equal on
the wire.  Delete this file together with that test once nobody needs
the comparison.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.clock import TimerHandle
from repro.core.errors import ConnectionError_
from repro.core.pdu import unwrap
from repro.core.sublayer import Sublayer
from repro.transport.sublayered.congestion import AimdCc, CongestionControl
from repro.transport.sublayered.dm import ConnId
from repro.transport.sublayered.headers import (
    OSR_CTL_DATA,
    OSR_CTL_PROBE,
    OSR_CTL_UPDATE,
    OSR_HEADER,
)
from repro.transport.sublayered.osr import ConnCallbacks

CcFactory = Callable[[int], CongestionControl]


class ReferenceOsr(Sublayer):
    """OSR as it was before the send buffer was trimmed (see module docstring)."""

    HEADER = OSR_HEADER
    NOTIFICATIONS = ()

    def __init__(
        self,
        name: str = "osr",
        mss: int = 1000,
        recv_buffer: int = 65535,
        cc_factory: CcFactory | None = None,
        probe_interval: float = 0.3,
    ):
        super().__init__(name)
        self.mss = mss
        self.recv_buffer = min(recv_buffer, 0xFFFF)
        self.cc_factory: CcFactory = cc_factory or (lambda m: AimdCc(m))
        self.probe_interval = probe_interval
        self._callbacks: dict[ConnId, ConnCallbacks] = {}
        self._ccs: dict[ConnId, CongestionControl] = {}
        self._probe_timers: dict[ConnId, TimerHandle] = {}
        # Host hook: a passive connection reached ESTABLISHED.
        self.on_accept: Callable[[ConnId], None] | None = None

    def clone_fresh(self) -> "ReferenceOsr":
        return ReferenceOsr(
            self.name, self.mss, self.recv_buffer, self.cc_factory,
            self.probe_interval,
        )

    def on_attach(self) -> None:
        self.state.conns = {}
        # Measurement-side bookkeeping (not protocol state): per-conn
        # FIFO of (stream end offset, arrival time) for each send()
        # chunk, consumed as _pump releases segments past it — the
        # queue_residency histogram is how long app bytes wait in OSR
        # before RD gets them (virtual time).
        self._arrivals: dict[ConnId, list[tuple[int, float]]] = {}
        self.state.segments_released = 0
        self.state.bytes_delivered = 0
        self.state.reordered = 0
        self.state.window_updates = 0
        self.state.ecn_echoed = 0
        self.state.ecn_cuts = 0

    # ------------------------------------------------------------------
    def _get(self, conn: ConnId) -> dict | None:
        return self.state.conns.get(conn)

    def _put(self, conn: ConnId, record: dict) -> None:
        # In place: O(1) however many connections the host carries.  The
        # re-assignment keeps the one logged write at tier="full".
        conns = self.state.conns
        conns[conn] = record
        self.state.conns = conns

    def _new_record(self) -> dict:
        return {
            "established": False,
            # sender
            "stream": b"",
            "next_offset": 0,       # next byte to hand to RD
            "inflight": 0,
            "peer_rwnd": self.mss,  # conservative until first advert
            "closing": False,
            "close_sent": False,
            # receiver
            "deliver_nxt": 0,
            "ooo": {},              # offset -> bytes
            "app_buffered": 0,
            "paused": False,
            "last_advertised": self.recv_buffer,
            "peer_fin_offset": None,
            "peer_close_seen": False,
            # ECN: echo owed to the peer / spacing of our own rate cuts
            "ecn_echo_owed": False,
            "last_ecn_cut": -1.0e9,
            "srtt_hint": 0.2,
        }

    def callbacks(self, conn: ConnId) -> ConnCallbacks:
        if conn not in self._callbacks:
            self._callbacks[conn] = ConnCallbacks()
        return self._callbacks[conn]

    def cc_for(self, conn: ConnId) -> CongestionControl:
        if conn not in self._ccs:
            self._ccs[conn] = self.cc_factory(self.mss)
        return self._ccs[conn]

    # ------------------------------------------------------------------
    # Application-facing operations (the host/socket layer calls these)
    # ------------------------------------------------------------------
    def open(self, conn: ConnId) -> None:
        if self._get(conn) is not None:
            raise ConnectionError_(f"connection {conn} already open")
        self._put(conn, self._new_record())
        assert self.below is not None
        self.below.open(conn)

    def listen(self, port: int) -> None:
        assert self.below is not None
        self.below.listen(port)

    def send(self, conn: ConnId, data: bytes) -> None:
        record = self._get(conn)
        if record is None:
            raise ConnectionError_(f"no connection {conn}")
        if record["closing"]:
            raise ConnectionError_("cannot send after close()")
        record = dict(record)
        record["stream"] = record["stream"] + bytes(data)
        self._put(conn, record)
        if data:
            self._arrivals.setdefault(conn, []).append(
                (len(record["stream"]), self.clock.now())
            )
        self._pump(conn)

    def close(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None:
            return
        record = dict(record)
        record["closing"] = True
        self._put(conn, record)
        self._pump(conn)
        self._maybe_send_close(conn)

    def pause_reading(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is not None:
            record = dict(record)
            record["paused"] = True
            self._put(conn, record)

    def resume_reading(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None:
            return
        record = dict(record)
        record["paused"] = False
        record["app_buffered"] = 0
        self._put(conn, record)
        self._send_window_update(conn)

    # ------------------------------------------------------------------
    # Rate control: release segments while the budget allows (T2: this
    # loop is the entire OSR->RD data interface).
    # ------------------------------------------------------------------
    def _pump(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or not record["established"]:
            return
        cc = self.cc_for(conn)
        while True:
            record = self._get(conn)
            remaining = len(record["stream"]) - record["next_offset"]
            if remaining <= 0:
                break
            budget = min(cc.window(), record["peer_rwnd"]) - record["inflight"]
            if budget < min(self.mss, remaining):
                break
            length = min(self.mss, remaining)
            offset = record["next_offset"]
            payload = record["stream"][offset : offset + length]
            record = dict(record)
            record["next_offset"] = offset + length
            record["inflight"] = record["inflight"] + length
            self._put(conn, record)
            self.count("segments_released")
            self.metrics.gauge("cwnd", cc.window())
            released_through = offset + length
            arrivals = self._arrivals.get(conn)
            while arrivals and arrivals[0][0] <= released_through:
                _, arrived = arrivals.pop(0)
                self.metrics.observe_hist(
                    "queue_residency", self.clock.now() - arrived
                )
            assert self.below is not None
            self.below.send(conn, offset, self._segment(conn, payload))
        self._maybe_arm_probe(conn)

    def _segment(self, conn: ConnId, payload: bytes, ctl: int = OSR_CTL_DATA):
        record = self._get(conn)
        ecn = 0
        if record is not None and record.get("ecn_echo_owed"):
            # Echo congestion-experienced back to the sender (ECE), in
            # our own OSR subheader — the signal never leaves the OSR
            # sublayer pair (T3).
            ecn = 2
            record = dict(record)
            record["ecn_echo_owed"] = False
            self._put(conn, record)
            self.state.ecn_echoed = self.state.ecn_echoed + 1
        header = {"wnd": self._advertised_window(conn), "ecn": ecn, "ctl": ctl}
        return self.wrap(header, payload)

    def _advertised_window(self, conn: ConnId) -> int:
        record = self._get(conn)
        assert record is not None
        ooo_bytes = sum(len(b) for b in record["ooo"].values())
        return max(0, self.recv_buffer - record["app_buffered"] - ooo_bytes)

    def _maybe_arm_probe(self, conn: ConnId) -> None:
        """Zero-window probing: if data waits but the peer window is
        closed and nothing is in flight, poke the peer periodically."""
        record = self._get(conn)
        if record is None:
            return
        blocked = (
            len(record["stream"]) > record["next_offset"]
            and record["peer_rwnd"] < min(
                self.mss, len(record["stream"]) - record["next_offset"]
            )
            and record["inflight"] == 0
        )
        existing = self._probe_timers.get(conn)
        if not blocked:
            if existing is not None:
                existing.cancel()
                self._probe_timers.pop(conn, None)
            return
        if existing is not None and not existing.cancelled:
            return
        self._probe_timers[conn] = self.clock.call_later(
            self.probe_interval, lambda: self._probe(conn)
        )

    def _probe(self, conn: ConnId) -> None:
        self._probe_timers.pop(conn, None)
        record = self._get(conn)
        if record is None:
            return
        self._send_control_segment(conn, OSR_CTL_PROBE)
        self._maybe_arm_probe(conn)

    def _send_window_update(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is not None:
            record = dict(record)
            record["last_advertised"] = self._advertised_window(conn)
            self._put(conn, record)
        self.state.window_updates = self.state.window_updates + 1
        self._send_control_segment(conn, OSR_CTL_UPDATE)

    def _maybe_advertise(self, conn: ConnId) -> None:
        """Event-driven flow control: RD's pure acks carry no window
        (separated signals), so OSR itself announces material window
        changes — emptying toward zero as a paused reader's buffer
        fills, reopening on resume."""
        record = self._get(conn)
        if record is None or not record["established"]:
            return
        advert = self._advertised_window(conn)
        last = record["last_advertised"]
        if (advert == 0) != (last == 0) or abs(advert - last) >= self.mss:
            self._send_window_update(conn)

    def _send_control_segment(self, conn: ConnId, ctl: int) -> None:
        """A zero-length OSR segment: carries only the OSR subheader."""
        record = self._get(conn)
        if record is None or not record["established"]:
            return
        assert self.below is not None
        self.below.send(conn, record["next_offset"], self._segment(conn, b"", ctl))

    def _process_ecn(self, conn: ConnId, ecn: int) -> None:
        """The congestion-signal half of the paper's OSR subheader:
        CE (bit 0) from the network is echoed back; an echo (bit 1)
        from the peer cuts our rate like a loss, at most once per
        round trip."""
        if not ecn:
            return
        record = dict(self._get(conn))
        if ecn & 1:
            record["ecn_echo_owed"] = True
            self._put(conn, record)
            self._send_window_update(conn)  # carry the echo promptly
            record = dict(self._get(conn))
        if ecn & 2:
            spacing = max(record["srtt_hint"], 0.01)
            if self.clock.now() - record["last_ecn_cut"] >= spacing:
                record["last_ecn_cut"] = self.clock.now()
                self._put(conn, record)
                self.state.ecn_cuts = self.state.ecn_cuts + 1
                self.cc_for(conn).on_loss("dupack")  # multiplicative cut
                return
        self._put(conn, record)

    def _maybe_send_close(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or not record["established"]:
            return
        if not record["closing"] or record["close_sent"]:
            return
        if record["next_offset"] < len(record["stream"]):
            return  # still segments to release
        record = dict(record)
        record["close_sent"] = True
        self._put(conn, record)
        assert self.below is not None
        self.below.close(conn, len(record["stream"]))

    # ------------------------------------------------------------------
    # RD notifications
    # ------------------------------------------------------------------
    def nf_established(self, conn: ConnId) -> None:
        record = self._get(conn)
        passive = record is None
        if record is None:
            record = self._new_record()  # passive open
        record = dict(record)
        record["established"] = True
        announced = record.get("announced", False)
        record["announced"] = True
        self._put(conn, record)
        if not announced and passive and self.on_accept is not None:
            self.on_accept(conn)
        callbacks = self._callbacks.get(conn)
        if (
            not announced
            and callbacks is not None
            and callbacks.on_established is not None
        ):
            callbacks.on_established()
        self._send_window_update(conn)  # announce our buffer
        self._pump(conn)
        self._maybe_send_close(conn)

    def nf_acked(
        self,
        conn: ConnId,
        offset: int,
        length: int,
        rtt: float | None = None,
        sacked: bool = False,
    ) -> None:
        record = self._get(conn)
        if record is None or length == 0:
            return
        record = dict(record)
        record["inflight"] = max(0, record["inflight"] - length)
        if rtt is not None and rtt > 0:
            record["srtt_hint"] = 0.875 * record["srtt_hint"] + 0.125 * rtt
        self._put(conn, record)
        self.cc_for(conn).on_ack(length, rtt)
        self._pump(conn)
        self._maybe_send_close(conn)

    def nf_loss(self, conn: ConnId, kind: str) -> None:
        self.cc_for(conn).on_loss(kind)

    def nf_peer_closed(self, conn: ConnId, fin_offset: int) -> None:
        record = self._get(conn)
        if record is None:
            return
        record = dict(record)
        record["peer_fin_offset"] = fin_offset
        self._put(conn, record)
        self._maybe_notify_peer_closed(conn)

    def nf_closed(self, conn: ConnId) -> None:
        callbacks = self._callbacks.get(conn)
        if callbacks is not None and callbacks.on_closed is not None:
            callbacks.on_closed()

    def nf_failed(self, conn: ConnId, reason: str) -> None:
        callbacks = self._callbacks.get(conn)
        if callbacks is not None and callbacks.on_failed is not None:
            callbacks.on_failed(reason)

    # ------------------------------------------------------------------
    # Receive path: ordering
    # ------------------------------------------------------------------
    def from_below(
        self, pdu: Any, conn: ConnId | None = None, offset: int | None = None,
        **meta: Any,
    ) -> None:
        if conn is None or not hasattr(pdu, "owner") or pdu.owner != self.name:
            return
        record = self._get(conn)
        if record is None:
            return
        values, payload = unwrap(pdu, self.name)
        # Flow control: every peer OSR subheader refreshes its window.
        record = dict(record)
        record["peer_rwnd"] = values["wnd"]
        self._put(conn, record)
        self._process_ecn(conn, values["ecn"])
        if not isinstance(payload, (bytes, bytearray)) or len(payload) == 0:
            if values["ctl"] == OSR_CTL_PROBE:
                self._send_window_update(conn)  # answer the probe
            self._pump(conn)
            return
        assert offset is not None
        self._reassemble(conn, offset, bytes(payload))
        self._pump(conn)

    def _reassemble(self, conn: ConnId, offset: int, data: bytes) -> None:
        record = dict(self._get(conn))
        if offset == record["deliver_nxt"]:
            self._put(conn, record)
            self._deliver(conn, data)
            record = dict(self._get(conn))
            ooo = dict(record["ooo"])
            while record["deliver_nxt"] in ooo:
                self.state.reordered = self.state.reordered + 1
                chunk = ooo.pop(record["deliver_nxt"])
                record["ooo"] = ooo
                self._put(conn, record)
                self._deliver(conn, chunk)
                record = dict(self._get(conn))
                ooo = dict(record["ooo"])
            record["ooo"] = ooo
            self._put(conn, record)
        elif offset > record["deliver_nxt"]:
            ooo = dict(record["ooo"])
            ooo[offset] = data
            record["ooo"] = ooo
            self._put(conn, record)
        # offset < deliver_nxt cannot happen: RD delivers exactly once
        self._maybe_advertise(conn)
        self._maybe_notify_peer_closed(conn)

    def _deliver(self, conn: ConnId, data: bytes) -> None:
        record = dict(self._get(conn))
        record["deliver_nxt"] = record["deliver_nxt"] + len(data)
        if record["paused"]:
            record["app_buffered"] = record["app_buffered"] + len(data)
        self._put(conn, record)
        self.state.bytes_delivered = self.state.bytes_delivered + len(data)
        callbacks = self._callbacks.get(conn)
        if callbacks is not None and callbacks.on_data is not None:
            callbacks.on_data(data)
        self.deliver_up(data, conn=conn)

    def _maybe_notify_peer_closed(self, conn: ConnId) -> None:
        record = self._get(conn)
        if record is None or record["peer_close_seen"]:
            return
        fin_offset = record["peer_fin_offset"]
        if fin_offset is None or record["deliver_nxt"] < fin_offset:
            return
        record = dict(record)
        record["peer_close_seen"] = True
        self._put(conn, record)
        callbacks = self._callbacks.get(conn)
        if callbacks is not None and callbacks.on_peer_closed is not None:
            callbacks.on_peer_closed()

"""A monolithic TCP in the lwIP style — the paper's Section 4.2 subject.

One input routine, one output routine, one shared PCB.  The code is
*deliberately* organized the way lwIP (and BSD before it) organizes
it: ``tcp_input`` interleaves demultiplexing, connection management,
reliable delivery, congestion control, and flow control over the same
PCB fields, because that is the artifact whose verification difficulty
the paper reports ("the window is crucial for ensuring reliable
delivery, but reasoning is complicated because congestion/flow control
can also alter the window").

Each concern's statements run under a distinct instrumentation actor
(``demux``/``cm``/``rd``/``cc``/``flow``), which changes nothing about
behaviour but lets the A1/E3 experiments *measure* the entanglement:
the interference matrix over PCB fields is the quantified version of
the paper's Section 2.3 argument.

Functionally this TCP speaks a standard-shaped protocol over
:class:`~repro.transport.rfc793.TcpSegment` wire units: three-way
handshake with pluggable ISN schemes, cumulative acks, RTT-adaptive
retransmission with Karn's rule, fast retransmit, Reno-style slow
start/congestion avoidance, receiver flow control with zero-window
probing, and FIN teardown.
"""

from __future__ import annotations

from typing import Any, Callable

from ...core.clock import Clock
from ...core.errors import ConnectionError_
from ...core.instrument import AccessLog, acting_as
from ..config import TcpConfig
from ..rfc793 import TcpSegment
from ..seqspace import fold, unfold
from . import pcb as S
from .pcb import make_pcb


class MonoTcpSocket:
    """The application's handle on one monolithic TCP connection."""

    def __init__(self, host: "MonolithicTcpHost", key: tuple[int, int]):
        self._host = host
        self.key = key
        self.received: list[bytes] = []
        self.on_data: Callable[[bytes], None] | None = None
        self.on_connect: Callable[[], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self.on_error: Callable[[str], None] | None = None
        self._paused = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        control = self._host._pcbs.get(self.key)
        if control is None:
            return S.CLOSED
        with self._host.access_log.paused():
            return control.snapshot()["state"]

    @property
    def connected(self) -> bool:
        return self.state == S.ESTABLISHED

    def send(self, data: bytes) -> None:
        self._host._app_send(self.key, data)

    def close(self) -> None:
        self._host._app_close(self.key)

    def pause_reading(self) -> None:
        """Stop consuming: delivered bytes count against the window."""
        self._paused = True

    def resume_reading(self) -> None:
        self._paused = False
        self._host._app_resumed(self.key)

    def bytes_received(self) -> bytes:
        return b"".join(self.received)

    def __repr__(self) -> str:
        return f"MonoTcpSocket({self.key}, {self.state})"


class MonolithicTcpHost:
    """One endpoint running the monolithic TCP over a segment pipe."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        config: TcpConfig | None = None,
        access_log: AccessLog | None = None,
        addr: int = 0,
    ):
        self.name = name
        self.clock = clock
        self.config = config or TcpConfig()
        self.access_log = access_log if access_log is not None else AccessLog()
        self.addr = addr
        self.on_transmit: Callable[[TcpSegment], None] | None = None
        self.on_accept: Callable[[MonoTcpSocket], None] | None = None
        self._pcbs: dict[tuple[int, int], Any] = {}
        self._sockets: dict[tuple[int, int], MonoTcpSocket] = {}
        self._listeners: set[int] = set()
        self.segments_sent = 0
        self.segments_received = 0

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def listen(self, port: int) -> None:
        self._listeners.add(port)

    def connect(self, lport: int, rport: int) -> MonoTcpSocket:
        key = (lport, rport)
        if key in self._pcbs:
            raise ConnectionError_(f"{key} already in use")
        control = make_pcb(lport, rport, self.config, self.access_log)
        self._pcbs[key] = control
        socket = MonoTcpSocket(self, key)
        self._sockets[key] = socket
        with acting_as("cm"):
            iss = self.config.isn_scheme.choose(
                self.clock, (self.addr, lport, 0, rport)
            )
            control.iss = iss
            control.snd_una = iss
            control.snd_nxt = iss + 1  # SYN occupies one sequence
            control.state = S.SYN_SENT
        self._emit(control, syn=True, seq=iss, with_ack=False)
        self._arm_rtx(control)
        return socket

    def socket_for(self, lport: int, rport: int) -> MonoTcpSocket | None:
        return self._sockets.get((lport, rport))

    def _app_send(self, key: tuple[int, int], data: bytes) -> None:
        control = self._pcbs.get(key)
        if control is None:
            raise ConnectionError_(f"{key} is closed")
        with acting_as("rd"):
            if control.fin_pending:
                raise ConnectionError_("cannot send after close()")
            control.stream = control.stream + bytes(data)
        self._output(control)

    def _app_close(self, key: tuple[int, int]) -> None:
        control = self._pcbs.get(key)
        if control is None:
            return
        with acting_as("cm"):
            control.fin_pending = True
        self._output(control)

    def _app_resumed(self, key: tuple[int, int]) -> None:
        control = self._pcbs.get(key)
        if control is None:
            return
        with acting_as("flow"):
            control.app_buffered = 0
        # Window update so a blocked sender can resume.
        self._emit(control, seq=control.snd_nxt)

    # ------------------------------------------------------------------
    # Input path — one big routine, lwIP style.
    # ------------------------------------------------------------------
    def receive(self, segment: TcpSegment, **meta: Any) -> None:
        if not isinstance(segment, TcpSegment):
            return  # foreign wire unit (e.g. a native sublayered pdu)
        self.segments_received += 1
        # --- demultiplexing: find the PCB -----------------------------
        with acting_as("demux"):
            key = (segment.dport, segment.sport)
            control = self._pcbs.get(key)
        if control is None:
            if segment.syn and not segment.has_ack and (
                segment.dport in self._listeners
            ):
                self._passive_open(segment)
            return
        state = self._state_of(control)
        if state == S.SYN_SENT:
            self._input_syn_sent(control, segment)
            return
        if state == S.TIME_WAIT:
            if segment.fin:  # peer retransmitted its FIN: re-ack
                self._emit(control, seq=control.snd_nxt)
            return
        self._input_established_family(control, segment)

    def _state_of(self, control) -> str:
        with acting_as("cm"):
            return control.state

    def _passive_open(self, segment: TcpSegment) -> None:
        key = (segment.dport, segment.sport)
        control = make_pcb(segment.dport, segment.sport, self.config, self.access_log)
        self._pcbs[key] = control
        socket = MonoTcpSocket(self, key)
        self._sockets[key] = socket
        with acting_as("cm"):
            control.irs = segment.seq
            control.rcv_nxt = segment.seq + 1
            iss = self.config.isn_scheme.choose(
                self.clock, (self.addr, segment.dport, 0, segment.sport)
            )
            control.iss = iss
            control.snd_una = iss
            control.snd_nxt = iss + 1
            control.state = S.SYN_RCVD
        with acting_as("flow"):
            control.snd_wnd = segment.window
        self._emit(control, syn=True, seq=control.iss)
        self._arm_rtx(control)

    def _input_syn_sent(self, control, segment: TcpSegment) -> None:
        if not (segment.syn and segment.has_ack):
            return
        with acting_as("cm"):
            expected = fold(control.iss + 1)
            if segment.ack != expected:
                return  # wrong ack: not our handshake
            control.irs = segment.seq
            control.rcv_nxt = segment.seq + 1
            control.state = S.ESTABLISHED
        with acting_as("rd"):
            control.snd_una = control.iss + 1
            self._cancel_rtx(control)
        with acting_as("flow"):
            control.snd_wnd = segment.window
        self._emit(control, seq=control.snd_nxt)  # the handshake ACK
        socket = self._sockets.get((control.lport, control.rport))
        if socket is not None and socket.on_connect is not None:
            socket.on_connect()
        self._output(control)

    def _input_established_family(self, control, segment: TcpSegment) -> None:
        # --- connection management: SYN_RCVD completion ---------------
        state = self._state_of(control)
        if state == S.SYN_RCVD and segment.has_ack:
            with acting_as("cm"):
                if unfold(control.snd_una, segment.ack) >= control.iss + 1:
                    control.state = S.ESTABLISHED
                    state = S.ESTABLISHED
            with acting_as("rd"):
                if control.snd_una < control.iss + 1:
                    control.snd_una = control.iss + 1
                self._cancel_rtx(control)
            socket = self._sockets.get((control.lport, control.rport))
            if socket is not None and self.on_accept is not None:
                self.on_accept(socket)
        if state == S.SYN_RCVD:
            if segment.syn and not segment.has_ack:
                self._emit(control, syn=True, seq=control.iss)  # re-SYNACK
            return

        # --- ACK processing: reliable delivery + congestion + flow ----
        if segment.has_ack:
            self._process_ack(control, segment)

        # --- in-bound data: reliable delivery --------------------------
        if segment.payload:
            self._process_data(control, segment)

        # --- FIN: connection management --------------------------------
        if segment.fin:
            self._process_fin(control, segment)

    # ------------------------------------------------------------------
    def _process_ack(self, control, segment: TcpSegment) -> None:
        with acting_as("rd"):
            snd_una = control.snd_una
            snd_nxt = control.snd_nxt
            ack_abs = unfold(snd_una, segment.ack)
        with acting_as("flow"):
            control.snd_wnd = segment.window

        if ack_abs > snd_nxt:
            return  # acks data we never sent
        if ack_abs > snd_una:
            with acting_as("rd"):
                control.snd_una = ack_abs
                control.retransmits = 0
                # Acked bytes leave the send buffer (a FIN's ack reaches
                # one sequence number past them).
                start = self._stream_start(control)
                acked = min(ack_abs, start + len(control.stream)) - start
                control.stream = control.stream[acked:]
                control.stream_base = control.stream_base + acked
                # RTT sampling with Karn's rule (only untimed-clean seqs)
                if control.rtt_seq is not None and ack_abs > control.rtt_seq:
                    self._rtt_sample(control, self.clock.now() - control.rtt_start)
                    control.rtt_seq = None
                self._cancel_rtx(control)
                if ack_abs < snd_nxt or self._fin_outstanding(control):
                    self._arm_rtx(control)
            with acting_as("cc"):
                control.dupacks = 0
                bytes_acked = ack_abs - snd_una
                if control.cwnd < control.ssthresh:
                    control.cwnd = control.cwnd + min(
                        bytes_acked, self.config.mss
                    )  # slow start
                else:
                    control.cwnd = control.cwnd + max(
                        1, self.config.mss * self.config.mss // control.cwnd
                    )  # congestion avoidance
            self._ack_advances_close(control, ack_abs)
            self._output(control)
        elif ack_abs == snd_una and snd_nxt > snd_una and not segment.payload:
            with acting_as("cc"):
                control.dupacks = control.dupacks + 1
                dupacks = control.dupacks
            if dupacks == self.config.dupack_threshold:
                self._fast_retransmit(control)

    def _fin_outstanding(self, control) -> bool:
        return control.fin_sent and control.snd_una < (control.fin_seq or 0) + 1

    def _ack_advances_close(self, control, ack_abs: int) -> None:
        with acting_as("cm"):
            if control.fin_seq is None or ack_abs < control.fin_seq + 1:
                return
            state = control.state
            if state == S.FIN_WAIT_1:
                control.state = S.FIN_WAIT_2
            elif state == S.CLOSING:
                self._enter_time_wait(control)
            elif state == S.LAST_ACK:
                control.state = S.CLOSED
                self._destroy(control)

    def _process_data(self, control, segment: TcpSegment) -> None:
        socket = self._sockets.get((control.lport, control.rport))
        with acting_as("rd"):
            seq_abs = unfold(control.rcv_nxt, segment.seq)
            rcv_nxt = control.rcv_nxt
        if seq_abs > rcv_nxt:
            with acting_as("rd"):
                ooo = dict(control.ooo)
                ooo.setdefault(seq_abs, segment.payload)
                control.ooo = ooo
            self._emit(control, seq=control.snd_nxt)  # dup ack
            return
        # trim any already-received prefix
        offset = rcv_nxt - seq_abs
        payload = segment.payload[offset:] if offset < len(segment.payload) else b""
        if not payload:
            self._emit(control, seq=control.snd_nxt)  # pure duplicate
            return
        with acting_as("flow"):
            paused = socket is not None and socket._paused
            room = self.config.recv_buffer - control.app_buffered
        if paused and len(payload) > room:
            # Receiver is full: honest flow control drops what the
            # window did not allow; the ack below re-advertises.
            self._emit(control, seq=control.snd_nxt)
            return
        with acting_as("rd"):
            control.rcv_nxt = rcv_nxt + len(payload)
        self._deliver(control, socket, payload)
        self._drain_ooo(control, socket)
        self._emit(control, seq=control.snd_nxt)

    def _deliver(self, control, socket, payload: bytes) -> None:
        if socket is None:
            return
        socket.received.append(payload)
        if socket._paused:
            with acting_as("flow"):
                control.app_buffered = control.app_buffered + len(payload)
        if socket.on_data is not None:
            socket.on_data(payload)

    def _drain_ooo(self, control, socket) -> None:
        with acting_as("rd"):
            ooo = dict(control.ooo)
            rcv_nxt = control.rcv_nxt
        progressed = True
        while progressed:
            progressed = False
            for seq in sorted(ooo):
                if seq <= rcv_nxt:
                    payload = ooo.pop(seq)
                    usable = payload[rcv_nxt - seq :]
                    if usable:
                        self._deliver(control, socket, usable)
                        rcv_nxt += len(usable)
                    progressed = True
                    break
                break
        with acting_as("rd"):
            control.ooo = ooo
            control.rcv_nxt = rcv_nxt

    def _process_fin(self, control, segment: TcpSegment) -> None:
        with acting_as("rd"):
            seq_abs = unfold(control.rcv_nxt, segment.seq)
            fin_seq = seq_abs + len(segment.payload)
            if fin_seq != control.rcv_nxt:
                self._emit(control, seq=control.snd_nxt)
                return
            control.rcv_nxt = control.rcv_nxt + 1
        socket = self._sockets.get((control.lport, control.rport))
        with acting_as("cm"):
            control.fin_rcvd = True
            state = control.state
            if state == S.ESTABLISHED:
                control.state = S.CLOSE_WAIT
            elif state == S.FIN_WAIT_1:
                control.state = S.CLOSING
            elif state == S.FIN_WAIT_2:
                self._enter_time_wait(control)
        self._emit(control, seq=control.snd_nxt)  # ack the FIN
        if socket is not None and socket.on_close is not None:
            socket.on_close()

    def _enter_time_wait(self, control) -> None:
        control.state = S.TIME_WAIT
        self.clock.call_later(1.0, lambda: self._destroy(control))

    def _destroy(self, control) -> None:
        self._cancel_rtx(control)
        with self.access_log.paused():
            key = (control.snapshot()["lport"], control.snapshot()["rport"])
        self._pcbs.pop(key, None)

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------
    def _output(self, control) -> None:
        while True:
            with acting_as("cm"):
                state = control.state
            if state not in (S.ESTABLISHED, S.CLOSE_WAIT, S.FIN_WAIT_1, S.CLOSING,
                             S.LAST_ACK):
                return
            with acting_as("rd"):
                # The send-window computation is reliable-delivery code
                # reading congestion- and flow-control state — exactly
                # the cross-subfunction coupling Section 2.3 describes,
                # and the instrumentation records it as such.
                snd_wnd = control.snd_wnd
                cwnd = control.cwnd
                snd_una = control.snd_una
                snd_nxt = control.snd_nxt
                stream_end = self._stream_start(control) + len(control.stream)
                window = min(cwnd, snd_wnd)
                usable = snd_una + window - snd_nxt
                available = stream_end - snd_nxt
                chunk = min(usable, available, self.config.mss)
            if chunk > 0:
                self._send_data_chunk(control, snd_nxt, chunk)
                continue
            if (
                available == 0
                and self._should_send_fin(control)
                and usable > 0
            ):
                self._send_fin(control)
                continue
            if available > 0 and snd_wnd == 0 and snd_una == snd_nxt:
                self._arm_persist(control)
            return

    @staticmethod
    def _stream_start(control) -> int:
        """Sequence number of the first byte still in the send buffer."""
        return control.iss + 1 + control.stream_base

    def _should_send_fin(self, control) -> bool:
        with acting_as("cm"):
            return control.fin_pending and not control.fin_sent

    def _send_data_chunk(self, control, seq: int, length: int) -> None:
        with acting_as("rd"):
            start = seq - self._stream_start(control)
            payload = control.stream[start : start + length]
            control.snd_nxt = seq + length
            if control.rtt_seq is None:
                control.rtt_seq = seq
                control.rtt_start = self.clock.now()
        self._emit(control, seq=seq, payload=payload)
        self._arm_rtx(control)

    def _send_fin(self, control) -> None:
        with acting_as("cm"):
            control.fin_sent = True
            control.fin_seq = control.snd_nxt
            state = control.state
            if state in (S.ESTABLISHED,):
                control.state = S.FIN_WAIT_1
            elif state == S.CLOSE_WAIT:
                control.state = S.LAST_ACK
        with acting_as("rd"):
            fin_seq = control.snd_nxt
            control.snd_nxt = fin_seq + 1
        self._emit(control, fin=True, seq=fin_seq)
        self._arm_rtx(control)

    def _emit(
        self,
        control,
        seq: int,
        payload: bytes = b"",
        syn: bool = False,
        fin: bool = False,
        with_ack: bool = True,
    ) -> None:
        with acting_as("flow"):
            ooo_bytes = sum(len(p) for p in control.ooo.values())
            window = max(
                0, self.config.recv_buffer - control.app_buffered - ooo_bytes
            )
        with acting_as("rd"):
            ack_value = fold(control.rcv_nxt) if with_ack else 0
        header = {
            "sport": control.lport,
            "dport": control.rport,
            "seq": fold(seq),
            "ack": ack_value,
            "ack_flag": int(with_ack),
            "syn": int(syn),
            "fin": int(fin),
            "psh": int(bool(payload)),
            "window": min(window, 0xFFFF),
        }
        self.segments_sent += 1
        if self.on_transmit is not None:
            self.on_transmit(TcpSegment(header=header, payload=bytes(payload)))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_rtx(self, control) -> None:
        with self.access_log.paused():
            timer = control.snapshot()["rtx_timer"]
            rto = control.snapshot()["rto"]
        if timer is not None:
            timer.cancel()
        handle = self.clock.call_later(rto, lambda: self._on_rtx_timeout(control))
        with acting_as("rd"):
            control.rtx_timer = handle

    def _cancel_rtx(self, control) -> None:
        with self.access_log.paused():
            timer = control.snapshot()["rtx_timer"]
        if timer is not None:
            timer.cancel()
        with acting_as("rd"):
            control.rtx_timer = None

    def _on_rtx_timeout(self, control) -> None:
        with acting_as("cm"):
            state = control.state
        if state == S.SYN_SENT or state == S.SYN_RCVD:
            self._retransmit_handshake(control)
            return
        with acting_as("rd"):
            snd_una = control.snd_una
            snd_nxt = control.snd_nxt
        if snd_una >= snd_nxt:
            return  # everything acked meanwhile
        with acting_as("cc"):
            flight = snd_nxt - snd_una
            control.ssthresh = max(flight // 2, 2 * self.config.mss)
            control.cwnd = self.config.mss
            control.dupacks = 0
        with acting_as("rd"):
            control.rto = min(control.rto * 2, self.config.rto_max)
            control.retransmits = control.retransmits + 1
            control.rtt_seq = None  # Karn: no sampling on retransmits
        self._retransmit_front(control)
        self._arm_rtx(control)

    def _retransmit_handshake(self, control) -> None:
        with acting_as("cm"):
            control.syn_retries = control.syn_retries + 1
            retries = control.syn_retries
            state = control.state
        if retries > self.config.max_syn_retries:
            socket = self._sockets.get((control.lport, control.rport))
            with acting_as("cm"):
                control.state = S.CLOSED
            self._destroy(control)
            if socket is not None and socket.on_error is not None:
                socket.on_error("connection timed out")
            return
        with acting_as("rd"):
            control.rto = min(control.rto * 2, self.config.rto_max)
        self._emit(
            control, syn=True, seq=control.iss, with_ack=(state == S.SYN_RCVD)
        )
        self._arm_rtx(control)

    def _retransmit_front(self, control) -> None:
        """Resend the earliest unacked chunk (data or FIN)."""
        with acting_as("rd"):
            snd_una = control.snd_una
            start = snd_una - self._stream_start(control)
            payload = control.stream[start : start + self.config.mss]
        if payload:
            self._emit(control, seq=snd_una, payload=payload)
        elif self._fin_outstanding(control):
            self._emit(control, fin=True, seq=control.fin_seq)

    def _fast_retransmit(self, control) -> None:
        with acting_as("cc"):
            flight = control.snd_nxt - control.snd_una
            control.ssthresh = max(flight // 2, 2 * self.config.mss)
            control.cwnd = control.ssthresh
        with acting_as("rd"):
            control.rtt_seq = None
        self._retransmit_front(control)

    def _arm_persist(self, control) -> None:
        with self.access_log.paused():
            if control.snapshot()["persist_timer"] is not None:
                return
            rto = control.snapshot()["rto"]
        handle = self.clock.call_later(rto, lambda: self._persist_probe(control))
        with acting_as("flow"):
            control.persist_timer = handle

    def _persist_probe(self, control) -> None:
        with acting_as("flow"):
            control.persist_timer = None
            snd_wnd = control.snd_wnd
        with acting_as("rd"):
            snd_nxt = control.snd_nxt
            stream_end = self._stream_start(control) + len(control.stream)
        if snd_wnd > 0 or snd_nxt >= stream_end:
            self._output(control)
            return
        # One byte beyond the window: the zero-window probe.
        with acting_as("rd"):
            start = snd_nxt - self._stream_start(control)
            probe = control.stream[start : start + 1]
        self._emit(control, seq=snd_nxt, payload=probe)
        self._arm_persist(control)

    # ------------------------------------------------------------------
    def _rtt_sample(self, control, sample: float) -> None:
        if control.srtt is None:
            control.srtt = sample
            control.rttvar = sample / 2
        else:
            control.rttvar = 0.75 * control.rttvar + 0.25 * abs(
                control.srtt - sample
            )
            control.srtt = 0.875 * control.srtt + 0.125 * sample
        control.rto = min(
            max(control.srtt + 4 * control.rttvar, self.config.rto_min),
            self.config.rto_max,
        )

    def pcb_snapshot(self, lport: int, rport: int) -> dict[str, Any]:
        control = self._pcbs[(lport, rport)]
        with self.access_log.paused():
            return control.snapshot()

    def __repr__(self) -> str:
        return f"MonolithicTcpHost({self.name!r}, {len(self._pcbs)} pcbs)"

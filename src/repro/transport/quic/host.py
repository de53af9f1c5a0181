"""The mini-QUIC host: Section 5's decomposition as a running stack.

Stack, top to bottom: **stream** (per-stream ordering and segmenting)
> **connection** (handshake, packet numbers, acks, loss recovery,
congestion) > **record** (authenticated encryption) > **DM** (ports —
the same demultiplexing sublayer the sublayered TCP uses, because
"QUIC runs over UDP" and DM *is* our UDP).  The host exposes the same
``on_transmit``/``receive`` surface as the TCP hosts, so it attaches
to the same links, media, and routed networks.
"""

from __future__ import annotations

from typing import Any, Callable

from ...compose.builder import StackBuilder
from ...core.clock import Clock
from ...core.instrument import AccessLog, acting_as
from ...core.interface import InterfaceLog
from ...core.wiring import TIER_FULL
from .connection import ConnId
from .stream import QuicConnCallbacks, StreamSublayer


class QuicConnection:
    """The application's handle on one mini-QUIC connection."""

    def __init__(self, host: "QuicHost", conn: ConnId):
        self._host = host
        self.key = conn
        self.streams: dict[int, list[bytes]] = {}
        self.finished_streams: set[int] = set()
        self.on_connect: Callable[[], None] | None = None
        self.on_stream_data: Callable[[int, bytes], None] | None = None
        self.on_stream_fin: Callable[[int], None] | None = None
        self.on_peer_close: Callable[[int], None] | None = None
        self.on_error: Callable[[str], None] | None = None
        self._connected = False
        self._wire()

    def _wire(self) -> None:
        callbacks: QuicConnCallbacks = self._host._stream_call(
            "callbacks", self.key
        )

        def established() -> None:
            self._connected = True
            if self.on_connect is not None:
                self.on_connect()

        def stream_data(stream_id: int, data: bytes) -> None:
            self.streams.setdefault(stream_id, []).append(data)
            if self.on_stream_data is not None:
                self.on_stream_data(stream_id, data)

        def stream_fin(stream_id: int) -> None:
            self.finished_streams.add(stream_id)
            if self.on_stream_fin is not None:
                self.on_stream_fin(stream_id)

        def peer_closed(code: int) -> None:
            if self.on_peer_close is not None:
                self.on_peer_close(code)

        def failed(reason: str) -> None:
            self._connected = False
            if self.on_error is not None:
                self.on_error(reason)

        callbacks.on_established = established
        callbacks.on_stream_data = stream_data
        callbacks.on_stream_fin = stream_fin
        callbacks.on_peer_closed = peer_closed
        callbacks.on_failed = failed

    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._connected

    def send(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        self._host._stream_call("send_stream", self.key, stream_id, data, fin)

    def close(self, code: int = 0) -> None:
        self._host._stream_call("close", self.key, code)

    def stream_bytes(self, stream_id: int) -> bytes:
        return b"".join(self.streams.get(stream_id, []))

    def __repr__(self) -> str:
        return f"QuicConnection({self.key}, connected={self._connected})"


class QuicHost:
    """One endpoint running the mini-QUIC stack."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        mtu: int = 1200,
        max_frame_data: int = 1000,
        cc_factory: Any | None = None,
        access_log: AccessLog | None = None,
        interface_log: InterfaceLog | None = None,
        metrics: Any | None = None,
        tier: str = TIER_FULL,
        replacements: dict[str, Any] | None = None,
        insertions: list[tuple[str, str, Any]] | None = None,
    ):
        self.name = name
        builder = StackBuilder(
            "quic",
            name=f"quic:{name}",
            clock=clock,
            access_log=access_log,
            interface_log=interface_log,
            metrics=metrics,
            tier=tier,
        )
        builder.with_params(
            mtu=mtu, max_frame_data=max_frame_data, cc_factory=cc_factory
        )
        for slot, replacement in (replacements or {}).items():
            builder.with_replacement(slot, replacement)
        for slot, where, extra in insertions or []:
            builder.with_insertion(slot, extra, where=where)
        self.stack = builder.build()
        self.stream: StreamSublayer = self.stack.sublayer("stream")  # type: ignore[assignment]
        self._connections: dict[ConnId, QuicConnection] = {}
        self.on_accept: Callable[[QuicConnection], None] | None = None
        self.stream.on_accept = self._accepted
        self.on_transmit: Callable[..., None] | None = None
        self.stack.on_transmit = lambda unit, **meta: self._transmit(unit, **meta)
        self.stack.on_deliver = lambda data, **meta: None

    @property
    def access_log(self) -> AccessLog:
        return self.stack.access_log

    @property
    def interface_log(self) -> InterfaceLog:
        return self.stack.interface_log

    def _transmit(self, unit: Any, **meta: Any) -> None:
        if self.on_transmit is not None:
            self.on_transmit(unit, **meta)

    def receive(self, unit: Any, **meta: Any) -> None:
        self.stack.receive(unit, **meta)

    def _stream_call(self, method: str, *args: Any) -> Any:
        with acting_as("stream"):
            return getattr(self.stream, method)(*args)

    # ------------------------------------------------------------------
    def listen(self, port: int) -> None:
        self._stream_call("listen", port)

    def connect(self, lport: int, rport: int) -> QuicConnection:
        conn: ConnId = (lport, rport)
        connection = QuicConnection(self, conn)
        self._connections[conn] = connection
        self._stream_call("open", conn)
        return connection

    def connection_for(self, lport: int, rport: int) -> QuicConnection | None:
        return self._connections.get((lport, rport))

    def _accepted(self, conn: ConnId) -> None:
        connection = QuicConnection(self, conn)
        connection._connected = True
        self._connections[conn] = connection
        if self.on_accept is not None:
            self.on_accept(connection)

    def __repr__(self) -> str:
        return f"QuicHost({self.name!r}, {len(self._connections)} connections)"

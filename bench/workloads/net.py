"""The two live workloads: echo ping-pong and a bulk stream into a sink.

Everything runs in one single-threaded process on one asyncio loop: a
``NetServer`` and its client stacks, each behind its own UDP socket on
the host's **loopback** interface.  UDP ports are ephemeral, so any
number of benchmark processes run side by side.  Both workloads are
closed loops: a client sends its next message, or its next window of
bytes, only when the previous one has come back or been sunk.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.net import LoopClock, NetServer, UDPEndpoint, codec_for_profile
from repro.net.endpoint import open_endpoint
from repro.obs import MetricsRegistry
from repro.transport.config import TcpConfig
from repro.transport.sublayered.host import SublayeredTcpHost

from . import Phase, Workload, peak_rss_mb, registry_counts

#: Seconds one timed unit may take before it counts as failed and the
#: phase stops: a wedge becomes a failure, not a hang.
UNIT_TIMEOUT_S = 10.0
#: Event-loop heartbeat period, seconds (traced invocation only).
HEARTBEAT_S = 0.01
SERVER_PORT = 80
#: Stack (DM) port of client 0; private to this process's server.
BASE_PORT = 40000


class _Client:
    """One client stack, its endpoint, and both ends of its connection."""

    def __init__(self, index: int, host: Any, endpoint: UDPEndpoint):
        self.index = index
        self.host = host
        self.endpoint = endpoint
        self.sock: Any = None
        self.server_sock: Any = None
        self.arrived = 0  # bytes the awaited side has been handed so far
        self.target = 0
        self.waiter: asyncio.Future | None = None

    def on_bytes(self, count: int) -> None:
        self.arrived += count
        waiter = self.waiter
        if waiter is not None and not waiter.done() and self.arrived >= self.target:
            waiter.set_result(None)

    async def wait_bytes(self, loop: asyncio.AbstractEventLoop, more: int) -> bool:
        """Wait until ``more`` further bytes arrived; False on timeout."""
        self.target += more
        if self.arrived < self.target:
            self.waiter = loop.create_future()
            try:
                await asyncio.wait_for(self.waiter, UNIT_TIMEOUT_S)
            except asyncio.TimeoutError:
                return False
        return True


class _NetWorkload(Workload):
    """Server, clients and loop shared by both live workloads."""

    MODE = "echo"
    CLIENTS = 1
    WARMUP_UNITS = 20
    #: Payload bytes handed to receiving applications per operation.
    PAYLOAD_BYTES_PER_OP = 1

    def prepare(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._prepare())

    def measure(self, seconds: float, heartbeat: bool = False) -> Phase:
        return self.loop.run_until_complete(self._measure(seconds, heartbeat))

    def close(self) -> None:
        for endpoint in self._endpoints():
            endpoint.close()
        # One turn so the transports' close callbacks run before the loop goes.
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

    def _endpoints(self) -> list[UDPEndpoint]:
        return [self.server.endpoint] + [c.endpoint for c in self.clients]

    async def _prepare(self) -> None:
        loop = asyncio.get_running_loop()
        tracer = self.tracer
        self.registry = MetricsRegistry()
        config = TcpConfig(mss=1000)
        started = time.perf_counter()
        self.server = NetServer(
            tcp_port=SERVER_PORT,
            mode=self.MODE,
            config=config,
            metrics=self.registry,
            tier="metrics",
        )
        server_endpoint = await self.server.start()  # ephemeral UDP port
        self.build_ms = (time.perf_counter() - started) * 1e3
        if tracer is not None:
            tracer.attach_stack(self.server.host.stack)
            tracer.attach_endpoint(server_endpoint)
        self.clients = []
        clock = LoopClock(loop)
        for index in range(self.CLIENTS):
            started = time.perf_counter()
            host = SublayeredTcpHost(
                f"client{index}",
                clock,
                config,
                metrics=self.registry.scoped(f"net/client{index}"),
                tier="metrics",
            )
            self.build_ms += (time.perf_counter() - started) * 1e3
            endpoint = UDPEndpoint(
                host,
                codec_for_profile("tcp"),
                name=f"client{index}",
                metrics=self.registry,
            )
            await open_endpoint(endpoint, remote_addr=server_endpoint.local_address)
            if tracer is not None:
                tracer.attach_stack(host.stack)
                tracer.attach_endpoint(endpoint)
            client = _Client(index, host, endpoint)
            connected = loop.create_future()
            client.sock = host.connect(BASE_PORT + index, SERVER_PORT)
            client.sock.on_connect = lambda f=connected: f.done() or f.set_result(None)
            client.sock.on_error = lambda reason, f=connected: (
                f.done() or f.set_exception(ConnectionError(reason))
            )
            await asyncio.wait_for(connected, UNIT_TIMEOUT_S)
            client.server_sock = self.server.host.socket_for(
                SERVER_PORT, BASE_PORT + index
            )
            self._wire(client)
            self.clients.append(client)
        self.payloads = [self.rng(f"payload{i}") for i in range(self.CLIENTS)]
        for client in self.clients:
            for _ in range(self.WARMUP_UNITS):
                if await self._client_unit(client):
                    raise RuntimeError(f"{type(self).__name__}: warm-up unit failed")

    def _wire(self, client: _Client) -> None:
        """Route the bytes a unit waits for into ``client.on_bytes``."""
        raise NotImplementedError

    async def _client_unit(self, client: _Client) -> int:
        """Send one unit and verify it; returns operations failed."""
        raise NotImplementedError

    async def _heartbeat(self, lag_s: list[float]) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + HEARTBEAT_S
            await asyncio.sleep(HEARTBEAT_S)
            lag_s.append(loop.time() - due)

    async def _measure(self, seconds: float, heartbeat: bool) -> Phase:
        loop = asyncio.get_running_loop()
        phase = Phase()
        clock = time.perf_counter
        before = self._counts()
        beat = loop.create_task(self._heartbeat(phase.lag_s)) if heartbeat else None
        cpu_start = time.process_time()
        start = clock()
        deadline = start + seconds

        async def run_client(client: _Client) -> None:
            while True:
                unit_start = clock()
                failed = await self._client_unit(client)
                now = clock()
                phase.add_unit(self, now - unit_start, now - start, failed)
                if failed or clock() >= deadline:
                    return

        await asyncio.gather(*(run_client(client) for client in self.clients))
        phase.wall_s = clock() - start
        phase.cpu_s = time.process_time() - cpu_start
        if beat is not None:
            beat.cancel()
            await asyncio.gather(beat, return_exceptions=True)
        after = self._counts()
        phase.counts = {key: after[key] - before[key] for key in after}
        phase.counts["ops"] = phase.ops
        phase.rss_mb = phase.rss_mb or peak_rss_mb()
        return phase

    def _counts(self) -> dict[str, float]:
        stats = [endpoint.stats() for endpoint in self._endpoints()]
        stacks = [self.server.host.stack] + [c.host.stack for c in self.clients]
        return dict(
            registry_counts(self.registry),
            **{
                "net.endpoint.datagrams": sum(s["datagrams_out"] for s in stats),
                "net.endpoint.wire_bytes": sum(s["bytes_out"] for s in stats),
                "net.endpoint.decode_errors": sum(s["decode_errors"] for s in stats),
                "net.endpoint.unroutable": sum(s["unroutable"] for s in stats),
                "core.hops": sum(stack.hop_counters.total() for stack in stacks),
            },
        )


class NetEchoSmall(_NetWorkload):
    """Two clients ping-pong 64 B messages off an echo server."""

    MODE = "echo"
    CLIENTS = 2
    MESSAGE_BYTES = 64
    PAYLOAD_BYTES_PER_OP = 2 * MESSAGE_BYTES  # to the server, and back
    TAIL = 0.99  # thousands of round trips a run: forty samples beyond it
    TAIL_GROUPS = 20  # a hypervisor stall lands in one group, not in the result
    RSS_UNITS = 1000

    def _wire(self, client: _Client) -> None:
        client.sock.on_data = self.driver(lambda chunk: client.on_bytes(len(chunk)))

    async def _client_unit(self, client: _Client) -> int:
        payload = self.payloads[client.index].randbytes(self.MESSAGE_BYTES)
        client.sock.send(payload)
        arrived = await client.wait_bytes(self.loop, self.MESSAGE_BYTES)
        echoed = client.sock.bytes_received()
        # Both sockets keep every chunk they delivered; see sim.py.
        client.sock.received.clear()
        client.server_sock.received.clear()
        return 0 if arrived and echoed == payload else 1


class NetBulkSink(_NetWorkload):
    """One client streams 64 KiB windows into a sink server."""

    MODE = "sink"
    CLIENTS = 1
    BLOCK_KIB = 64  # one full receive window (``TcpConfig.recv_buffer``)
    OPS_PER_UNIT = BLOCK_KIB
    PAYLOAD_BYTES_PER_OP = 1024
    WARMUP_UNITS = 4  # slow start is over

    def _wire(self, client: _Client) -> None:
        sink = client.server_sock.on_data  # NetServer's byte counter

        def on_data(chunk: bytes) -> None:
            sink(chunk)
            client.on_bytes(len(chunk))

        client.server_sock.on_data = self.driver(on_data)

    async def _client_unit(self, client: _Client) -> int:
        data = self.payloads[client.index].randbytes(self.BLOCK_KIB * 1024)
        client.sock.send(data)
        arrived = await client.wait_bytes(self.loop, len(data))
        sunk = client.server_sock.bytes_received()
        client.server_sock.received.clear()
        return 0 if arrived and sunk == data else self.OPS_PER_UNIT

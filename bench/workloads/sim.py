"""The two host-pair simulations: lossy sublayered TCP and bit-error HDLC.

Each timed unit pushes one block through a pair of stacks and runs the
simulator to quiescence, so it costs **host time** only: the **virtual
time** spent waiting for a retransmission timer is skipped by the event
heap and reported separately as ``sim.virtual_completion_s``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Any

from repro.datalink import collect_bytes, connect_hdlc_pair, send_bytes
from repro.obs import MetricsRegistry
from repro.sim import DuplexLink, LinkConfig, Simulator
from repro.transport.config import TcpConfig
from repro.transport.sublayered.host import SublayeredTcpHost

from . import Workload, registry_counts


class _SimWorkload(Workload):
    """Shared shape: a simulator, two stacks, one duplex link, a registry."""

    sim: Simulator
    link: DuplexLink
    registry: MetricsRegistry
    stacks: tuple[Any, Any]

    def _attach_tracer(self) -> None:
        if self.tracer is not None:
            for stack in self.stacks:
                self.tracer.attach_stack(stack)

    def _world_counts(self) -> dict[str, float]:
        """Exact counters of the current simulator, link and stacks."""
        forward, reverse = self.link.forward.stats, self.link.reverse.stats
        return {
            "sim.engine.events": self.sim.events_processed,
            "sim.link.lost": forward.lost + reverse.lost,
            "sim.link.corrupted": forward.corrupted + reverse.corrupted,
            "sim.virtual_completion_s": self.sim.now,
            "core.hops": sum(stack.hop_counters.total() for stack in self.stacks),
        }

    def _counts(self) -> dict[str, float]:
        return dict(self._world_counts(), **registry_counts(self.registry))


class SimTcpLossy(_SimWorkload):
    """One 256 KiB transfer over sublayered TCP on a 1 %-loss link.

    Every unit is a whole transfer on a fresh simulator: two hosts, a
    handshake, slow start into the first losses, recovery, quiescence.
    One long-lived connection would measure something else — OSR keeps
    (and on every ``send`` copies) the whole stream it ever sent, so the
    rate would fall with the bytes already sent.
    """

    BLOCK_KIB = 256
    OPS_PER_UNIT = BLOCK_KIB

    def prepare(self) -> None:
        self.registry = MetricsRegistry()
        self.payloads = self.rng("payload")
        self.links = self.rng("link")
        self.finished: Counter[str] = Counter()
        if self._one_unit():
            raise RuntimeError("sim_tcp_lossy: warm-up transfer was not delivered")

    def _one_unit(self) -> int:
        self.sim = Simulator()
        config = TcpConfig(mss=1000)
        started = time.perf_counter()
        client, server = (
            SublayeredTcpHost(
                name,
                self.sim.clock(),
                config,
                metrics=self.registry.scoped(name),
                tier="metrics",
            )
            for name in ("client", "server")
        )
        self.build_ms = (time.perf_counter() - started) * 1e3
        self.stacks = (client.stack, server.stack)
        self.link = DuplexLink(
            self.sim,
            LinkConfig(delay=0.005, rate_bps=100e6, loss=0.01),
            rng_forward=random.Random(self.links.getrandbits(64)),
            rng_reverse=random.Random(self.links.getrandbits(64)),
        )
        self.link.attach(client, server)
        self._attach_tracer()
        server.listen(80)
        data = self.payloads.randbytes(self.BLOCK_KIB * 1024)
        sock = client.connect(12345, 80)
        sock.on_connect = self.driver(lambda: sock.send(data))
        # To quiescence: everything is acked, every timer is cancelled.
        self.sim.run()
        peer = server.socket_for(80, 12345)
        self.finished.update(super()._world_counts())
        delivered = peer.bytes_received() if peer is not None else b""
        return 0 if delivered == data else self.OPS_PER_UNIT

    def _world_counts(self) -> dict[str, float]:
        """The totals over every finished transfer, not the last one's."""
        return dict(self.finished)


class SimHdlcBiterr(_SimWorkload):
    """One 32-frame window of 256 B frames over a bit-error link."""

    FRAMES = 32
    FRAME_BYTES = 256
    OPS_PER_UNIT = FRAMES
    WARMUP_UNITS = 1

    def prepare(self) -> None:
        self.sim = Simulator()
        self.registry = MetricsRegistry()
        started = time.perf_counter()
        sender, receiver, self.link = connect_hdlc_pair(
            self.sim,
            LinkConfig(delay=0.005, rate_bps=10e6, bit_error_rate=2e-5),
            rng_seed=self.rng("link").getrandbits(31),
            arq="selective-repeat",
            window=self.FRAMES,
            tier="metrics",
            metrics=self.registry,
        )
        self.build_ms = (time.perf_counter() - started) * 1e3
        self.stacks = (sender, receiver)
        self._attach_tracer()
        self.sender = sender
        self.delivered = collect_bytes(receiver)
        receiver.on_deliver = self.driver(receiver.on_deliver)
        self.payloads = self.rng("payload")
        for _ in range(self.WARMUP_UNITS):
            if self._one_unit():
                raise RuntimeError("sim_hdlc_biterr: warm-up frames were not delivered")

    def _one_unit(self) -> int:
        frames = [
            self.payloads.randbytes(self.FRAME_BYTES) for _ in range(self.FRAMES)
        ]
        for frame in frames:
            send_bytes(self.sender, frame)
        self.sim.run()
        delivered = list(self.delivered)
        self.delivered.clear()
        if delivered == frames:
            return 0
        return sum(
            1
            for index, frame in enumerate(frames)
            if index >= len(delivered) or delivered[index] != frame
        )

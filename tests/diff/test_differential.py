"""Tier-invisibility rig: ``metrics`` and ``off`` against ``full``.

The instrumentation tier is promised to be *semantically invisible*
(:mod:`repro.core.wiring`): the tier changes how much per-crossing
host work a hop does, never what the protocols do.  This rig runs each
scenario (hdlc, hdlc with deterministic fault sublayers inserted,
wireless, tcp, quic) under seeded traffic at every tier and holds the
cheaper tiers byte-identical to ``full`` in delivered bytes, metrics
snapshot, and every sublayer's ``state.snapshot()``.

Hop counters are deliberately left out of the comparison: counting
crossings is the ``metrics`` tier's whole job, so only it has them.
"""

import functools
import random

import pytest

from repro.datalink import (
    build_hdlc_stack,
    build_wireless_station,
    collect_bytes,
    send_bytes,
)
from repro.faults import DropFault, DuplicateFault, FaultSchedule
from repro.obs import MetricsRegistry
from repro.sim import BroadcastMedium, DuplexLink, LinkConfig, Simulator

#: The tiers held equal to ``full``.
CHEAP_TIERS = ["metrics", "off"]

PAYLOADS = [
    bytes([i % 251, (i * 7) % 251, (i * 13) % 251]) * 3 for i in range(24)
]


def books(stacks, delivered, metrics):
    """Everything a run observably produced, in comparable form."""
    return {
        "delivered": delivered,
        "metrics": metrics.snapshot(),
        "state": {
            stack.name: {
                sublayer.name: sublayer.state.snapshot()
                for sublayer in stack.sublayers
            }
            for stack in stacks
        },
    }


# ----------------------------------------------------------------------
# hdlc
# ----------------------------------------------------------------------
@functools.cache
def run_hdlc(tier, fault=False):
    sim = Simulator()
    metrics = MetricsRegistry()
    kwargs = dict(tier=tier, metrics=metrics, retransmit_timeout=0.23)
    a = build_hdlc_stack("dl-a", sim.clock(), **kwargs)
    b = build_hdlc_stack("dl-b", sim.clock(), **kwargs)
    if fault:
        a.insert(
            "errordetect",
            DropFault(
                "drop",
                schedule=FaultSchedule(every=5),
                rng=random.Random(11),
                direction="down",
            ),
            where="after",
        )
        b.insert(
            "errordetect",
            DuplicateFault(
                "dup",
                schedule=FaultSchedule(every=7),
                rng=random.Random(12),
                direction="up",
            ),
            where="before",
        )
    duplex = DuplexLink(
        sim,
        LinkConfig(delay=0.013, rate_bps=2_000_000),
        rng_forward=random.Random(3),
        rng_reverse=random.Random(4),
        name="hdlc",
    )
    duplex.attach(a, b)
    inbox_a, inbox_b = collect_bytes(a), collect_bytes(b)
    for payload in PAYLOADS:
        send_bytes(a, payload)
    for payload in PAYLOADS[:8]:
        send_bytes(b, payload)
    sim.run(until=30)
    return books([a, b], {"a": inbox_a, "b": inbox_b}, metrics)


@pytest.mark.parametrize("tier", CHEAP_TIERS)
def test_hdlc_is_tier_invisible(tier):
    baseline = run_hdlc("full")
    assert baseline["delivered"]["b"] == PAYLOADS  # the run is not vacuous
    assert run_hdlc(tier) == baseline


@pytest.mark.parametrize("tier", CHEAP_TIERS)
def test_hdlc_with_faults_is_tier_invisible(tier):
    baseline = run_hdlc("full", fault=True)
    faults = baseline["state"]["dl-a"]["drop"]["faults_injected"]
    assert faults > 0  # the adversity actually happened
    assert baseline["delivered"]["b"] == PAYLOADS  # ...and ARQ recovered
    assert run_hdlc(tier, fault=True) == baseline


# ----------------------------------------------------------------------
# wireless
# ----------------------------------------------------------------------
@functools.cache
def run_wireless(tier):
    sim = Simulator()
    metrics = MetricsRegistry()
    medium = BroadcastMedium(sim, rate_bps=200_000.0)
    stacks = [
        build_wireless_station(
            sim,
            medium,
            address=i,
            rng=random.Random(40 + i),
            tier=tier,
            metrics=metrics,
        )
        for i in range(3)
    ]
    inboxes = [collect_bytes(stack) for stack in stacks]
    for payload in PAYLOADS[:10]:
        send_bytes(stacks[0], payload)
    for payload in PAYLOADS[10:16]:
        send_bytes(stacks[1], payload)
    sim.run(until=30)
    return books(
        stacks, {i: inbox for i, inbox in enumerate(inboxes)}, metrics
    )


@pytest.mark.parametrize("tier", CHEAP_TIERS)
def test_wireless_is_tier_invisible(tier):
    baseline = run_wireless("full")
    assert any(baseline["delivered"][i] for i in (1, 2))
    assert run_wireless(tier) == baseline


# ----------------------------------------------------------------------
# tcp / quic (host level)
# ----------------------------------------------------------------------
@functools.cache
def run_tcp(tier, nbytes=30_000):
    from repro.transport import SublayeredTcpHost, TcpConfig

    sim = Simulator()
    metrics = MetricsRegistry()
    config = TcpConfig(mss=1000)
    a = SublayeredTcpHost("a", sim.clock(), config, tier=tier, metrics=metrics)
    b = SublayeredTcpHost("b", sim.clock(), config, tier=tier, metrics=metrics)
    duplex = DuplexLink(
        sim,
        LinkConfig(delay=0.02, rate_bps=8_000_000, loss=0.02),
        rng_forward=random.Random(5),
        rng_reverse=random.Random(6),
    )
    duplex.attach(a, b)
    b.listen(80)
    data = bytes(i % 251 for i in range(nbytes))
    done = {}

    def accept(peer_sock):
        def on_data(_chunk):
            if len(peer_sock.bytes_received()) >= nbytes:
                done.setdefault("at", sim.now)

        peer_sock.on_data = on_data

    b.on_accept = accept
    sock = a.connect(12345, 80)
    sock.on_connect = lambda: (sock.send(data), sock.close())
    sim.run(until=120)
    peer = b.socket_for(80, 12345)
    received = peer.bytes_received() if peer is not None else b""
    return {
        **books([a.stack, b.stack], received, metrics),
        "done_at": done.get("at"),
    }


@pytest.mark.parametrize("tier", CHEAP_TIERS)
def test_tcp_is_tier_invisible(tier):
    baseline = run_tcp("full")
    assert len(baseline["delivered"]) == 30_000
    assert run_tcp(tier) == baseline


@functools.cache
def run_quic(tier, nbytes=20_000):
    from repro.transport.quic import QuicHost

    sim = Simulator()
    metrics = MetricsRegistry()
    a = QuicHost("qa", sim.clock(), tier=tier, metrics=metrics)
    b = QuicHost("qb", sim.clock(), tier=tier, metrics=metrics)
    duplex = DuplexLink(
        sim,
        LinkConfig(delay=0.02, rate_bps=8_000_000, loss=0.02),
        rng_forward=random.Random(7),
        rng_reverse=random.Random(8),
    )
    duplex.attach(a, b)
    b.listen(443)
    data = bytes(i % 251 for i in range(nbytes))
    conn = a.connect(9000, 443)
    conn.on_connect = lambda: conn.send(1, data, fin=True)
    sim.run(until=120)
    peer = b.connection_for(443, 9000)
    received = peer.stream_bytes(1) if peer is not None else b""
    return books([a.stack, b.stack], received, metrics)


@pytest.mark.parametrize("tier", CHEAP_TIERS)
def test_quic_is_tier_invisible(tier):
    baseline = run_quic("full")
    assert len(baseline["delivered"]) == 20_000
    assert run_quic(tier) == baseline

"""The live OSR against a frozen copy of the OSR it replaced.

``reference_osr.ReferenceOsr`` kept every byte a connection ever sent
and copied its records on every update; the live ``OsrSublayer`` keeps
only the bytes it has not released to RD.  Neither change may be
visible from outside: for every seed, both OSRs must put the same units
on the wire in the same order at the same virtual times, deliver the
same bytes, and close at the same FIN offset.
"""

import pytest

from repro.core.pdu import Pdu
from repro.transport import TcpConfig
from repro.transport.sublayered.headers import CM_FIN, OSR_CTL_PROBE

from .helpers import make_pair, pattern
from .reference_osr import ReferenceOsr

CONFIG = TcpConfig(mss=500, recv_buffer=3000)
SEEDS = range(4)


def reference_factory(config: TcpConfig) -> ReferenceOsr:
    return ReferenceOsr("osr", mss=config.mss, recv_buffer=config.recv_buffer)


def layers(unit) -> list[tuple[str, dict]]:
    """Every (owner, header values) of a nested unit, outermost first,
    then its payload bytes."""
    assert isinstance(unit, Pdu)
    headers = [(pdu.owner, dict(pdu.header)) for pdu in unit.header_chain()]
    return headers + [("payload", bytes(unit.payload() or b""))]


def run(osr_factory, seed: int, chunks: list[int], pause_for: float = 0.0):
    """Send ``chunks`` (sizes) one per millisecond a->b over a lossy
    link, then close; returns (transcript, delivered, fin offsets)."""
    sim, a, b, _link = make_pair(
        loss=0.03, reorder_jitter=0.005, seed=seed, config=CONFIG,
        osr_factory=osr_factory, tier="metrics",
    )
    transcript: list[tuple[float, str, list]] = []
    for host in (a, b):
        forward = host.on_transmit

        def tap(unit, _forward=forward, _name=host.name, **meta):
            transcript.append((sim.now, _name, layers(unit)))
            _forward(unit, **meta)

        host.on_transmit = tap

    data = pattern(sum(chunks))
    b.listen(80)
    if pause_for:
        def accepted(sock):
            sock.pause_reading()
            sim.schedule(pause_for, sock.resume_reading)

        b.on_accept = accepted
    sock = a.connect(12345, 80)
    sent = iter(chunks)
    position = [0]

    def next_chunk() -> None:
        size = next(sent, None)
        if size is None:
            sock.close()
            return
        sock.send(data[position[0] : position[0] + size])
        position[0] += size
        sim.schedule(0.001, next_chunk)

    sock.on_connect = next_chunk
    sim.run(until=300)
    peer = b.socket_for(80, 12345)
    delivered = peer.bytes_received() if peer is not None else b""
    fins = [
        values["offset"]
        for _time, name, units in transcript
        if name == "a"
        for owner, values in units
        if owner == "cm" and values["kind"] == CM_FIN
    ]
    return transcript, delivered, data, fins


SCENARIOS = {
    "many_small_sends": dict(chunks=[37 + (i * 53) % 211 for i in range(150)]),
    "one_large_send": dict(chunks=[40_000]),
    "paused_reader": dict(chunks=[700] * 30, pause_for=4.0),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_live_osr_matches_the_frozen_one(scenario, seed):
    live = run(None, seed, **SCENARIOS[scenario])
    frozen = run(reference_factory, seed, **SCENARIOS[scenario])
    transcript, delivered, data, fins = live
    assert delivered == data
    assert fins and set(fins) == {len(data)}
    assert transcript == frozen[0]
    assert delivered == frozen[1]
    assert fins == frozen[3]


def test_the_paused_reader_forces_zero_window_probes():
    transcript = run(None, 0, **SCENARIOS["paused_reader"])[0]
    probes = [
        units for _time, name, units in transcript
        if name == "a" and any(
            owner == "osr" and values["ctl"] == OSR_CTL_PROBE
            for owner, values in units
        )
    ]
    assert probes

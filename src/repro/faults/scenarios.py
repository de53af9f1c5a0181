"""Resilience scenarios: stack profile × fault plan × traffic × monitors.

A :class:`Scenario` composes four declarative pieces —

* a stack profile from :mod:`repro.compose` (hdlc, wireless, tcp,
  quic) or a routed :class:`~repro.network.topology.Topology`;
* a *fault plan*: :class:`FaultSpec` entries naming where in the stack
  each :class:`~repro.faults.sublayers.FaultSublayer` is inserted and
  how to build it from a seeded rng stream;
* a traffic generator and stop condition run through
  :class:`repro.sim.Simulator`;
* the invariant :mod:`monitors <repro.faults.monitors>` that must hold
  over the evidence the run leaves behind —

and runs N seeded trials.  Every random choice (fault rng, link rng,
MAC backoff) draws from a named :class:`~repro.sim.rng.RngFactory`
stream of the trial seed, so a trial is a pure function of
``(scenario, seed)`` and any red result replays exactly.

The built-in scenarios put each fault *below* the sublayer whose job
is to mask it: drop/duplicate/corrupt below ARQ (hdlc), drop between
ARQ and MAC (wireless), drop/duplicate below RD (tcp), drop below the
QUIC connection sublayer.  The ``arq=False`` wireless variant is the
negative control: with recovery removed the same faults must turn the
no-data-loss monitor red, proving the monitors bite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import ConfigurationError
from ..datalink.stacks import (
    build_hdlc_stack,
    build_wireless_station,
    collect_bytes,
    send_bytes,
)
from ..network import LinkState, Topology
from ..obs import MetricsRegistry
from ..sim import (
    BroadcastMedium,
    DuplexLink,
    LinkConfig,
    RngFactory,
    Simulator,
)
from ..transport.config import TcpConfig
from ..transport.quic import QuicHost
from ..transport.sublayered import SublayeredTcpHost
from .monitors import (
    Evidence,
    FaultsInjectedMonitor,
    InOrderDeliveryMonitor,
    LinkCorruptionVisibleMonitor,
    Monitor,
    NoDataLossMonitor,
    NoEscapeMonitor,
    ReconvergenceMonitor,
    Violation,
)
from .schedule import FaultSchedule
from .sublayers import CorruptBitsFault, DropFault, DuplicateFault, FaultSublayer

#: Instrumentation tier scenario stacks run at: monitors consume
#: metrics, not the litmus logs, and trials are traffic-heavy.
SCENARIO_TIER = "metrics"


@dataclass(frozen=True)
class FaultSpec:
    """One fault position in a plan: where it goes, how to build it."""

    slot: str
    where: str
    label: str
    make: Callable[[random.Random], FaultSublayer]

    def realise(self, rng: RngFactory, endpoint: str) -> FaultSublayer:
        """A fresh fault instance on its own named rng stream."""
        return self.make(rng.stream(f"fault:{endpoint}:{self.label}"))


def _insertions(
    plan: list[FaultSpec], rng: RngFactory, endpoint: str
) -> list[tuple[str, str, Any]]:
    return [
        (spec.slot, spec.where, spec.realise(rng, endpoint)) for spec in plan
    ]


# ----------------------------------------------------------------------
# Trial / scenario results
# ----------------------------------------------------------------------
@dataclass
class TrialResult:
    """One seeded trial's verdict: monitor violations plus run info."""

    seed: int
    violations: list[Violation]
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no invariant monitor fired."""
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form (deterministic for a given seed)."""
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "info": self.info,
        }


@dataclass
class ScenarioResult:
    """All trials of one scenario, in seed order."""

    name: str
    profile: str
    trials: list[TrialResult]

    @property
    def ok(self) -> bool:
        """True when every trial stayed green."""
        return all(t.ok for t in self.trials)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form (trial dicts in seed order)."""
        return {
            "name": self.name,
            "profile": self.profile,
            "ok": self.ok,
            "trials": [t.as_dict() for t in self.trials],
        }


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def run_until(
    sim: Simulator,
    done: Callable[[], bool],
    timeout: float,
    step: float = 1.0,
) -> bool:
    """Drive the simulator until ``done()`` or the timeout; True if done."""
    while sim.now < timeout:
        if done():
            return True
        sim.run(until=min(sim.now + step, timeout))
    return done()


class Scenario:
    """Base: N seeded trials, each checked by the invariant monitors.

    A trial is a pure function of ``(scenario, seed)`` — every random
    choice draws from a named stream of the trial seed — so a campaign
    report is reproducible from its matrix name and seed list alone.
    """

    name = "scenario"
    profile = "?"

    #: The trial's flight recorder, set by :meth:`run_trial_with_metrics`
    #: for the duration of one :meth:`execute` (None = not recording).
    recorder: Any = None

    def monitors(self) -> list[Monitor]:
        """The invariant monitors that judge each trial's evidence."""
        raise NotImplementedError

    def execute(self, seed: int) -> Evidence:
        """Build the world, run the traffic, return the evidence."""
        raise NotImplementedError

    def _observe(self, registry: Any, *stacks: Any) -> None:
        """Hand the trial's registry and stacks to the flight recorder.

        Every ``execute`` calls this once its world is built; with no
        recorder installed it is a no-op, so scenarios pay nothing in
        the common unrecorded case.
        """
        if self.recorder is not None:
            self.recorder.observe(registry, *stacks)

    def run_trial(self, seed: int) -> TrialResult:
        """Execute one seeded trial and judge it with the monitors."""
        trial, _ = self.run_trial_with_metrics(seed)
        return trial

    def run_trial_with_metrics(
        self, seed: int, recorder: Any = None
    ) -> tuple[TrialResult, dict[str, Any]]:
        """One trial plus the metrics snapshot its run left behind.

        The snapshot is JSON-serializable; the campaign folds the
        snapshots into one campaign-wide registry via
        :meth:`~repro.obs.MetricsRegistry.merge_snapshot`.

        ``recorder`` (a :class:`~repro.obs.FlightRecorder`) rides along
        for the trial: ``execute`` attaches it to the trial's stacks
        and registry, and a red verdict — monitor violations, collected
        errors, or an exception a sublayer let escape — triggers the
        post-mortem bundle dump.  Green trials write nothing.
        """
        self.recorder = recorder
        try:
            evidence = self.execute(seed)
        finally:
            self.recorder = None
        violations = [
            violation
            for monitor in self.monitors()
            for violation in monitor.check(evidence)
        ]
        info = dict(evidence.extras.get("info", {}))
        snapshot = evidence.metrics.snapshot()
        info["faults_injected"] = int(
            sum(
                value
                for name, value in snapshot["counters"].items()
                if name.endswith("/faults_injected")
            )
        )
        if recorder is not None:
            recorder.detach()
            if violations or evidence.errors:
                bundle = recorder.dump(
                    {
                        "scenario": self.name,
                        "seed": seed,
                        "violations": [v.as_dict() for v in violations],
                        "errors": list(evidence.errors),
                    }
                )
                info["bundle"] = str(bundle)
        return TrialResult(seed=seed, violations=violations, info=info), snapshot

    def run(self, seeds: list[int]) -> ScenarioResult:
        """Run one trial per seed, in seed order."""
        return ScenarioResult(
            name=self.name,
            profile=self.profile,
            trials=[self.run_trial(seed) for seed in seeds],
        )

    # ------------------------------------------------------------------
    def _drive(
        self,
        sim: Simulator,
        evidence: Evidence,
        done: Callable[[], bool],
        timeout: float,
    ) -> None:
        """Run the event loop, catching anything a sublayer lets escape."""
        try:
            finished = run_until(sim, done, timeout)
        except Exception as exc:  # noqa: BLE001 — escapes ARE the finding
            evidence.errors.append(f"{type(exc).__name__}: {exc}")
            finished = False
        evidence.extras.setdefault("info", {}).update(
            {"finished": finished, "virtual_time": round(sim.now, 3)}
        )


# ----------------------------------------------------------------------
# HDLC: drop + duplicate + corruption below the ARQ sublayer
# ----------------------------------------------------------------------
class HdlcScenario(Scenario):
    """Point-to-point HDLC under drop, duplication, and bit corruption."""

    name = "hdlc-drop-dup-corrupt"
    profile = "hdlc"

    def __init__(
        self,
        messages: int = 12,
        drop: float = 0.15,
        duplicate: float = 0.1,
        corrupt: float = 0.1,
        timeout: float = 240.0,
    ):
        """Configure traffic volume, fault probabilities, and timeout."""
        self.messages = messages
        self.drop = drop
        self.duplicate = duplicate
        self.corrupt = corrupt
        self.timeout = timeout

    def plan(self) -> list[FaultSpec]:
        """Drop + duplicate below ARQ, corruption below the CRC."""
        return [
            FaultSpec(
                "arq", "after", "drop",
                lambda rng: DropFault(
                    "fault-drop",
                    FaultSchedule.with_probability(self.drop),
                    rng,
                ),
            ),
            FaultSpec(
                "arq", "after", "dup",
                lambda rng: DuplicateFault(
                    "fault-dup",
                    FaultSchedule.with_probability(self.duplicate),
                    rng,
                ),
            ),
            # Below the CRC: flipped bits must be detected there and
            # recovered above, exactly like line noise.
            FaultSpec(
                "errordetect", "after", "corrupt",
                lambda rng: CorruptBitsFault(
                    "fault-corrupt",
                    FaultSchedule.with_probability(self.corrupt),
                    rng,
                    flips=3,
                ),
            ),
        ]

    def monitors(self) -> list[Monitor]:
        """Loss, ordering, escape, injection, and corruption-visibility."""
        return [
            NoDataLossMonitor(),
            InOrderDeliveryMonitor(),
            NoEscapeMonitor(),
            FaultsInjectedMonitor(),
            LinkCorruptionVisibleMonitor(),
        ]

    def execute(self, seed: int) -> Evidence:
        """Two HDLC stacks over a noisy duplex link; a sends, b collects."""
        sim = Simulator()
        rng = RngFactory(seed)
        registry = MetricsRegistry()
        plan = self.plan()
        stacks = [
            build_hdlc_stack(
                f"dl-{end}",
                sim.clock(),
                retransmit_timeout=0.1,
                tier=SCENARIO_TIER,
                insertions=_insertions(plan, rng, end),
                metrics=registry,
            )
            for end in ("a", "b")
        ]
        duplex = DuplexLink(
            sim,
            LinkConfig(delay=0.01, bit_error_rate=0.0005),
            rng_forward=rng.stream("link:fwd"),
            rng_reverse=rng.stream("link:rev"),
            name="hdlc",
            metrics=registry,
        )
        duplex.attach(stacks[0], stacks[1])
        self._observe(registry, *stacks)
        inbox = collect_bytes(stacks[1])
        messages = [f"frame-{seed}-{i}".encode() for i in range(self.messages)]
        for message in messages:
            send_bytes(stacks[0], message)
        evidence = Evidence(
            scenario=self.name,
            seed=seed,
            metrics=registry,
            sent={"a->b": messages},
            received={"a->b": inbox},
            links=[duplex.forward, duplex.reverse],
        )
        self._drive(
            sim, evidence, lambda: len(inbox) >= len(messages), self.timeout
        )
        return evidence


# ----------------------------------------------------------------------
# Wireless: ARQ inserted above the MAC, drop fault between them
# ----------------------------------------------------------------------
class WirelessScenario(Scenario):
    """Broadcast stations with a drop fault between recovery and MAC.

    The wireless profile ships without error recovery; this scenario
    *inserts* a go-back-N ARQ above the MAC — the same sublayering
    operation as the fault itself — so the no-data-loss invariant
    holds.  ``arq=False`` removes only the recovery sublayer and is
    the campaign's negative control: the monitors must turn red.
    """

    profile = "wireless"

    def __init__(
        self,
        messages: int = 10,
        drop: float = 0.25,
        arq: bool = True,
        timeout: float = 120.0,
    ):
        """Configure traffic, drop probability, and the ARQ control."""
        self.messages = messages
        self.drop = drop
        self.arq = arq
        self.timeout = timeout
        self.name = "wireless-drop-arq" if arq else "wireless-drop-noarq"

    def monitors(self) -> list[Monitor]:
        """Loss, ordering, escape, and injection-evidence monitors."""
        return [
            NoDataLossMonitor(),
            InOrderDeliveryMonitor(),
            NoEscapeMonitor(),
            FaultsInjectedMonitor(),
        ]

    def execute(self, seed: int) -> Evidence:
        """Two stations on a broadcast medium; 0 sends, 1 collects."""
        from ..datalink.arq import GoBackNArq

        sim = Simulator()
        rng = RngFactory(seed)
        registry = MetricsRegistry()
        medium = BroadcastMedium(sim, rate_bps=200_000.0)

        def station(address: int) -> Any:
            """One station stack with the ARQ/fault insertions applied."""
            insertions: list[tuple[str, str, Any]] = []
            if self.arq:
                insertions.append(
                    (
                        "mac",
                        "before",
                        GoBackNArq(
                            "recovery",
                            retransmit_timeout=0.12,
                            max_retries=40,
                            window=4,
                        ),
                    )
                )
            insertions.append(
                (
                    "mac",
                    "before",
                    DropFault(
                        "fault-drop",
                        FaultSchedule.with_probability(self.drop),
                        rng.stream(f"fault:{address}:drop"),
                    ),
                )
            )
            return build_wireless_station(
                sim,
                medium,
                address=address,
                rng=rng.stream(f"mac:{address}"),
                tier=SCENARIO_TIER,
                insertions=insertions,
                metrics=registry,
            )

        stacks = [station(0), station(1)]
        self._observe(registry, *stacks)
        inbox = collect_bytes(stacks[1])
        collect_bytes(stacks[0])  # sink station 0's deliveries too
        messages = [f"wl-{seed}-{i}".encode() for i in range(self.messages)]
        for message in messages:
            send_bytes(stacks[0], message)
        evidence = Evidence(
            scenario=self.name,
            seed=seed,
            metrics=registry,
            sent={"0->1": messages},
            received={"0->1": inbox},
        )
        self._drive(
            sim, evidence, lambda: len(inbox) >= len(messages), self.timeout
        )
        return evidence


# ----------------------------------------------------------------------
# TCP: drop + duplicate between RD and CM
# ----------------------------------------------------------------------
class TcpScenario(Scenario):
    """Sublayered TCP transferring a byte stream under drop + duplication."""

    name = "tcp-drop-dup"
    profile = "tcp"

    def __init__(
        self,
        nbytes: int = 20_000,
        drop: float = 0.08,
        duplicate: float = 0.05,
        timeout: float = 300.0,
    ):
        """Configure transfer size, fault probabilities, and timeout."""
        self.nbytes = nbytes
        self.drop = drop
        self.duplicate = duplicate
        self.timeout = timeout

    def plan(self) -> list[FaultSpec]:
        """Drop + duplicate between RD and CM (data path, not handshake)."""
        # Below RD (whose job is reliable delivery), above CM: data
        # segments and acks take the faults, the connection handshake
        # (CM's own segments) does not — the invariant under test is
        # RD's, not CM's.
        return [
            FaultSpec(
                "rd", "after", "drop",
                lambda rng: DropFault(
                    "fault-drop",
                    FaultSchedule.with_probability(self.drop),
                    rng,
                ),
            ),
            FaultSpec(
                "rd", "after", "dup",
                lambda rng: DuplicateFault(
                    "fault-dup",
                    FaultSchedule.with_probability(self.duplicate),
                    rng,
                ),
            ),
        ]

    def monitors(self) -> list[Monitor]:
        """Loss, ordering, escape, and injection-evidence monitors."""
        return [
            NoDataLossMonitor(),
            InOrderDeliveryMonitor(),
            NoEscapeMonitor(),
            FaultsInjectedMonitor(),
        ]

    def execute(self, seed: int) -> Evidence:
        """One TCP transfer a->b over a faulty link; evidence is the bytes."""
        sim = Simulator()
        rng = RngFactory(seed)
        registry = MetricsRegistry()
        plan = self.plan()
        config = TcpConfig(mss=1000)
        hosts = {
            end: SublayeredTcpHost(
                end,
                sim.clock(),
                config,
                metrics=registry,
                tier=SCENARIO_TIER,
                insertions=_insertions(plan, rng, end),
            )
            for end in ("a", "b")
        }
        duplex = DuplexLink(
            sim,
            LinkConfig(delay=0.02, rate_bps=8_000_000),
            rng_forward=rng.stream("link:fwd"),
            rng_reverse=rng.stream("link:rev"),
            name="tcp",
            metrics=registry,
        )
        duplex.attach(hosts["a"], hosts["b"])
        self._observe(registry, hosts["a"], hosts["b"])

        hosts["b"].listen(80)
        data = bytes((seed + i) % 251 for i in range(self.nbytes))
        received: dict[str, bytes] = {"a->b": b""}

        def accept(peer_sock: Any) -> None:
            """Track the receiver-side byte stream as it grows."""
            peer_sock.on_data = lambda _chunk: received.__setitem__(
                "a->b", peer_sock.bytes_received()
            )

        hosts["b"].on_accept = accept
        sock = hosts["a"].connect(12345, 80)
        sock.on_connect = lambda: (sock.send(data), sock.close())

        evidence = Evidence(
            scenario=self.name,
            seed=seed,
            metrics=registry,
            sent={"a->b": data},
            received=received,
            links=[duplex.forward, duplex.reverse],
        )
        self._drive(
            sim,
            evidence,
            lambda: len(received["a->b"]) >= len(data),
            self.timeout,
        )
        return evidence


# ----------------------------------------------------------------------
# QUIC: drop below the record sublayer (loss recovery lives above)
# ----------------------------------------------------------------------
class QuicScenario(Scenario):
    """QUIC streams transferring under packet drop below the record layer."""

    name = "quic-drop"
    profile = "quic"

    def __init__(
        self,
        nbytes: int = 15_000,
        streams: int = 2,
        drop: float = 0.1,
        timeout: float = 300.0,
    ):
        """Configure per-stream size, stream count, drop rate, timeout."""
        self.nbytes = nbytes
        self.streams = streams
        self.drop = drop
        self.timeout = timeout

    def plan(self) -> list[FaultSpec]:
        """Drop every encrypted packet with probability ``drop``."""
        # Below record = every encrypted packet.  start_unit=2 lets the
        # first handshake flight through so trials measure steady-state
        # loss recovery, not handshake-retry luck.
        return [
            FaultSpec(
                "record", "after", "drop",
                lambda rng: DropFault(
                    "fault-drop",
                    FaultSchedule(probability=self.drop, start_unit=2),
                    rng,
                ),
            ),
        ]

    def monitors(self) -> list[Monitor]:
        """Loss, ordering, escape, and injection-evidence monitors."""
        return [
            NoDataLossMonitor(),
            InOrderDeliveryMonitor(),
            NoEscapeMonitor(),
            FaultsInjectedMonitor(),
        ]

    def execute(self, seed: int) -> Evidence:
        """A multi-stream QUIC transfer a->b over a lossy link."""
        sim = Simulator()
        rng = RngFactory(seed)
        registry = MetricsRegistry()
        plan = self.plan()
        hosts = {
            end: QuicHost(
                end,
                sim.clock(),
                metrics=registry,
                tier=SCENARIO_TIER,
                insertions=_insertions(plan, rng, end),
            )
            for end in ("a", "b")
        }
        duplex = DuplexLink(
            sim,
            LinkConfig(delay=0.02, rate_bps=8_000_000),
            rng_forward=rng.stream("link:fwd"),
            rng_reverse=rng.stream("link:rev"),
            name="quic",
            metrics=registry,
        )
        duplex.attach(hosts["a"], hosts["b"])
        self._observe(registry, hosts["a"], hosts["b"])

        hosts["b"].listen(443)
        payloads = {
            sid: bytes((seed + sid + i) % 251 for i in range(self.nbytes))
            for sid in range(1, self.streams + 1)
        }
        conn = hosts["a"].connect(5000, 443)
        conn.on_connect = lambda: [
            conn.send(sid, data, fin=True) for sid, data in payloads.items()
        ]

        def done() -> bool:
            """All stream payloads fully received on the b side."""
            peer = hosts["b"].connection_for(443, 5000)
            return peer is not None and all(
                len(peer.stream_bytes(sid)) >= len(data)
                for sid, data in payloads.items()
            )

        evidence = Evidence(
            scenario=self.name,
            seed=seed,
            metrics=registry,
            sent={f"stream-{sid}": data for sid, data in payloads.items()},
            received={},
            links=[duplex.forward, duplex.reverse],
        )
        self._drive(sim, evidence, done, self.timeout)
        peer = hosts["b"].connection_for(443, 5000)
        for sid in payloads:
            evidence.received[f"stream-{sid}"] = (
                peer.stream_bytes(sid) if peer is not None else b""
            )
        return evidence


# ----------------------------------------------------------------------
# Routing: link blackhole window, reconvergence required
# ----------------------------------------------------------------------
class RoutingScenario(Scenario):
    """A diamond topology rides out a link blackhole window.

    The failed link is the blackhole; the invariant is Zave's "remaining
    improbable" one: the control plane must reconverge to correct
    routes after both the failure and the repair, and data must flow
    again each time.
    """

    name = "routing-blackhole"
    profile = "routing"

    EDGES = [(1, 2), (2, 4), (1, 3), (3, 4)]

    def __init__(self, converge_timeout: float = 30.0):
        """Configure the per-phase convergence timeout."""
        self.converge_timeout = converge_timeout

    def monitors(self) -> list[Monitor]:
        """Reconvergence observations plus the no-escape check."""
        return [ReconvergenceMonitor(), NoEscapeMonitor()]

    def execute(self, seed: int) -> Evidence:
        """Fail and repair a diamond-topology link, recording convergence."""
        sim = Simulator()
        registry = MetricsRegistry()
        # Routed topologies drive router stacks internally; the
        # recorder still gets the registry for its metric checkpoints.
        self._observe(registry)
        evidence = Evidence(
            scenario=self.name, seed=seed, metrics=registry
        )
        observations: dict[str, bool] = {}
        evidence.extras["convergence"] = observations
        try:
            topo = Topology.build(
                sim, self.EDGES, routing_cls=LinkState, seed=seed
            )
            topo.start()
            observations["initial-convergence"] = (
                topo.converge(timeout=self.converge_timeout) is not None
            )
            topo.send_data(1, 4, b"before")
            sim.run(until=sim.now + 2)
            observations["delivery-before-blackhole"] = any(
                (p.src, p.dst) == (1, 4) for p in topo.delivered
            )

            topo.fail_link(1, 2)
            observations["reconvergence-after-blackhole"] = (
                topo.converge(timeout=self.converge_timeout) is not None
            )
            observations["routes-correct-after-blackhole"] = all(
                topo.routes_correct(source) for source in topo.routers
            )
            delivered_before = len(topo.delivered)
            topo.send_data(1, 4, b"during")
            sim.run(until=sim.now + 2)
            observations["delivery-after-blackhole"] = (
                len(topo.delivered) > delivered_before
            )

            topo.restore_link(1, 2)
            observations["reconvergence-after-repair"] = (
                topo.converge(timeout=self.converge_timeout) is not None
            )
            observations["routes-correct-after-repair"] = all(
                topo.routes_correct(source) for source in topo.routers
            )
        except Exception as exc:  # noqa: BLE001 — escapes ARE the finding
            evidence.errors.append(f"{type(exc).__name__}: {exc}")
        evidence.extras.setdefault("info", {})["virtual_time"] = round(
            sim.now, 3
        )
        return evidence


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------
def default_matrix() -> list[Scenario]:
    """The full campaign: every profile, its characteristic faults."""
    return [
        HdlcScenario(),
        WirelessScenario(),
        TcpScenario(),
        QuicScenario(),
        RoutingScenario(),
    ]


def smoke_matrix() -> list[Scenario]:
    """Reduced traffic for CI smoke runs: same shapes, less volume."""
    return [
        HdlcScenario(messages=6, timeout=120.0),
        WirelessScenario(messages=6, timeout=90.0),
        TcpScenario(nbytes=6_000, timeout=180.0),
        QuicScenario(nbytes=5_000, streams=1, timeout=180.0),
        RoutingScenario(),
    ]


def negative_matrix() -> list[Scenario]:
    """The deliberately-red control: recovery removed, monitors must
    fire.  Kept out of ``default``/``smoke`` so a green campaign stays
    meaningful; CI runs it separately to prove the flight recorder
    dumps a bundle when trials go red.  ``drop=0.4`` makes the medium
    hostile enough that every early seed actually loses data, so the
    red comes from the loss monitors rather than the injection-evidence
    backstop."""
    return [
        WirelessScenario(messages=8, drop=0.4, arq=False, timeout=90.0),
    ]


MATRICES: dict[str, Callable[[], list[Scenario]]] = {
    "default": default_matrix,
    "negative": negative_matrix,
    "smoke": smoke_matrix,
}


def build_matrix(name: str) -> list[Scenario]:
    """Instantiate a named scenario matrix (ConfigurationError if unknown)."""
    try:
        return MATRICES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario matrix {name!r}; available: {sorted(MATRICES)}"
        ) from None

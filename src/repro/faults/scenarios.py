"""Resilience scenarios: one :class:`Scenario` record, one recipe per profile.

A :class:`Scenario` is a frozen record of four pieces —

* a ``name`` and the stack ``profile`` it exercises;
* an ``execute(seed, observe)`` function that builds the world (stacks
  from :mod:`repro.compose` profiles or a routed
  :class:`~repro.network.topology.Topology`), runs the traffic through
  :class:`repro.sim.Simulator` and returns the
  :class:`~repro.faults.monitors.Evidence`;
* the invariant :mod:`monitors <repro.faults.monitors>` that must hold
  over that evidence —

and the harness methods that run N seeded trials of it.  Each profile
is a *recipe* — :func:`hdlc`, :func:`wireless`, :func:`tcp`,
:func:`quic`, :func:`routing` — that returns a ``Scenario``; the
fleet campaigns in :mod:`repro.topo.campaign` are one more recipe.

A recipe's fault plan is data: :class:`FaultSpec` entries naming where
in the stack each :class:`~repro.faults.sublayers.FaultSublayer` is
inserted, its class, its :class:`~repro.faults.schedule.FaultSchedule`
and any extra arguments.  Every random choice (fault rng, link rng,
MAC backoff) draws from a named :class:`~repro.sim.rng.RngFactory`
stream of the trial seed, so a trial is a pure function of
``(scenario, seed)`` and any red result replays exactly.

The recipes put each fault *below* the sublayer whose job is to mask
it: drop/duplicate/corrupt below ARQ (hdlc), drop between ARQ and MAC
(wireless), drop/duplicate below RD (tcp), drop below the QUIC
connection sublayer.  ``wireless(arq=False)`` is the negative control:
with recovery removed the same faults must turn the no-data-loss
monitor red, proving the monitors bite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import ConfigurationError
from ..datalink.arq import GoBackNArq
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

#: ``observe(registry, *stacks)``: hands a trial's world to the flight
#: recorder (a no-op when the trial is not being recorded).
Observe = Callable[..., Any]

#: Monitors for a traffic transfer between two endpoints.
DELIVERY_MONITORS: tuple[Monitor, ...] = (
    NoDataLossMonitor(),
    InOrderDeliveryMonitor(),
    NoEscapeMonitor(),
    FaultsInjectedMonitor(),
)

#: Monitors for a routed topology that must reconverge.
ROUTING_MONITORS: tuple[Monitor, ...] = (
    ReconvergenceMonitor(),
    NoEscapeMonitor(),
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault in a plan: where it goes, what it is, when it fires."""

    slot: str
    where: str
    label: str
    fault: type[FaultSublayer]
    schedule: FaultSchedule
    extra: dict[str, Any] = field(default_factory=dict)

    def realise(self, rng: RngFactory, end: Any) -> FaultSublayer:
        """A fresh ``fault-{label}`` on the ``fault:{end}:{label}`` stream."""
        return self.fault(
            f"fault-{self.label}",
            self.schedule,
            rng.stream(f"fault:{end}:{self.label}"),
            **self.extra,
        )


def _insertions(
    plan: list[FaultSpec], rng: RngFactory, end: Any
) -> list[tuple[str, str, Any]]:
    """The plan realised for one endpoint, as builder insertions."""
    return [(spec.slot, spec.where, spec.realise(rng, end)) for spec in plan]


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


def _unrecorded(registry: Any, *stacks: Any) -> None:
    """The ``observe`` of a trial no flight recorder watches."""


@dataclass(frozen=True)
class Scenario:
    """A named world to build and the monitors that judge it.

    A trial is a pure function of ``(scenario, seed)`` — every random
    choice draws from a named stream of the trial seed — so a campaign
    report is reproducible from its matrix name and seed list alone.
    """

    name: str
    profile: str
    execute: Callable[[int, Observe], Evidence]
    monitors: tuple[Monitor, ...]

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
        for the trial: ``execute`` hands it the trial's stacks and
        registry through ``observe``, and a red verdict — monitor
        violations, collected errors, or an exception a sublayer let
        escape — triggers the post-mortem bundle dump.  Green trials
        write nothing.
        """
        observe = _unrecorded if recorder is None else recorder.observe
        evidence = self.execute(seed, observe)
        violations = [
            violation
            for monitor in self.monitors
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


def _drive(
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


def _pair(
    name: str,
    profile: str,
    seed: int,
    observe: Observe,
    plan: list[FaultSpec],
    make_host: Callable[[str, Simulator, MetricsRegistry, list], Any],
    link: LinkConfig,
) -> tuple[Simulator, Any, Any, Evidence]:
    """Hosts ``a`` and ``b`` over one seeded duplex link, observed.

    ``make_host(end, sim, registry, insertions)`` builds one end with
    the plan realised on that end's rng streams; the link is named
    after the profile.  Returns the simulator, both hosts and the
    trial's evidence, holding the registry and both link directions
    (the recipe fills in what was sent and received).
    """
    sim = Simulator()
    rng = RngFactory(seed)
    registry = MetricsRegistry()
    a, b = (
        make_host(end, sim, registry, _insertions(plan, rng, end))
        for end in ("a", "b")
    )
    duplex = DuplexLink(
        sim,
        link,
        rng_forward=rng.stream("link:fwd"),
        rng_reverse=rng.stream("link:rev"),
        name=profile,
        metrics=registry,
    )
    duplex.attach(a, b)
    observe(registry, a, b)
    evidence = Evidence(
        scenario=name,
        seed=seed,
        metrics=registry,
        links=[duplex.forward, duplex.reverse],
    )
    return sim, a, b, evidence


def routed_trial(
    name: str,
    seed: int,
    observe: Observe,
    edges: list[tuple[int, int]],
    converge_timeout: float,
    script: Callable[[Topology, Callable[[], bool], dict[str, bool]], None],
) -> Evidence:
    """Build and converge a link-state topology, then run ``script``.

    ``script(topo, converged, observations)`` faults and repairs the
    topology, recording named booleans for
    :class:`~repro.faults.monitors.ReconvergenceMonitor`;
    ``converged()`` runs one convergence phase within the timeout.
    Routed topologies drive router stacks internally, so the recorder
    gets only the registry, for its metric checkpoints.
    """
    sim = Simulator()
    registry = MetricsRegistry()
    observe(registry)
    evidence = Evidence(scenario=name, seed=seed, metrics=registry)
    observations: dict[str, bool] = {}
    evidence.extras["convergence"] = observations
    try:
        topo = Topology.build(sim, edges, routing_cls=LinkState, seed=seed)
        topo.start()

        def converged() -> bool:
            """One convergence phase; True if it finished in time."""
            return topo.converge(timeout=converge_timeout) is not None

        observations["initial-convergence"] = converged()
        script(topo, converged, observations)
    except Exception as exc:  # noqa: BLE001 — escapes ARE the finding
        evidence.errors.append(f"{type(exc).__name__}: {exc}")
    evidence.extras.setdefault("info", {})["virtual_time"] = round(sim.now, 3)
    return evidence


def delivers(topo: Topology, src: int, dst: int, payload: bytes) -> bool:
    """Send one data packet, run two virtual seconds, report delivery."""
    delivered_before = len(topo.delivered)
    topo.send_data(src, dst, payload)
    topo.sim.run(until=topo.sim.now + 2)
    return len(topo.delivered) > delivered_before


# ----------------------------------------------------------------------
# HDLC: drop + duplicate + corruption below the ARQ sublayer
# ----------------------------------------------------------------------
def hdlc(
    messages: int = 12,
    drop: float = 0.15,
    duplicate: float = 0.1,
    corrupt: float = 0.1,
    timeout: float = 240.0,
) -> Scenario:
    """Point-to-point HDLC under drop, duplication, and bit corruption."""
    plan = [
        FaultSpec(
            "arq", "after", "drop", DropFault,
            FaultSchedule.with_probability(drop),
        ),
        FaultSpec(
            "arq", "after", "dup", DuplicateFault,
            FaultSchedule.with_probability(duplicate),
        ),
        # Below the CRC: flipped bits must be detected there and
        # recovered above, exactly like line noise.
        FaultSpec(
            "errordetect", "after", "corrupt", CorruptBitsFault,
            FaultSchedule.with_probability(corrupt), {"flips": 3},
        ),
    ]
    name = "hdlc-drop-dup-corrupt"

    def execute(seed: int, observe: Observe) -> Evidence:
        """Two HDLC stacks over a noisy duplex link; a sends, b collects."""
        sim, a, b, evidence = _pair(
            name,
            "hdlc",
            seed,
            observe,
            plan,
            lambda end, sim, registry, inserted: build_hdlc_stack(
                f"dl-{end}",
                sim.clock(),
                retransmit_timeout=0.1,
                tier=SCENARIO_TIER,
                insertions=inserted,
                metrics=registry,
            ),
            LinkConfig(delay=0.01, bit_error_rate=0.0005),
        )
        inbox = collect_bytes(b)
        sent = [f"frame-{seed}-{i}".encode() for i in range(messages)]
        for message in sent:
            send_bytes(a, message)
        evidence.sent["a->b"] = sent
        evidence.received["a->b"] = inbox
        _drive(sim, evidence, lambda: len(inbox) >= len(sent), timeout)
        return evidence

    return Scenario(
        name,
        "hdlc",
        execute,
        DELIVERY_MONITORS + (LinkCorruptionVisibleMonitor(),),
    )


# ----------------------------------------------------------------------
# Wireless: ARQ inserted above the MAC, drop fault between them
# ----------------------------------------------------------------------
def wireless(
    messages: int = 10,
    drop: float = 0.25,
    arq: bool = True,
    timeout: float = 120.0,
) -> Scenario:
    """Broadcast stations with a drop fault between recovery and MAC.

    The wireless profile ships without error recovery; this scenario
    *inserts* a go-back-N ARQ above the MAC — the same sublayering
    operation as the fault itself — so the no-data-loss invariant
    holds.  ``arq=False`` removes only the recovery sublayer and is
    the campaign's negative control: the monitors must turn red.
    """
    plan = [
        FaultSpec(
            "mac", "before", "drop", DropFault,
            FaultSchedule.with_probability(drop),
        ),
    ]
    name = "wireless-drop-arq" if arq else "wireless-drop-noarq"

    def execute(seed: int, observe: Observe) -> Evidence:
        """Two stations on a broadcast medium; 0 sends, 1 collects."""
        sim = Simulator()
        rng = RngFactory(seed)
        registry = MetricsRegistry()
        medium = BroadcastMedium(sim, rate_bps=200_000.0)

        def station(address: int) -> Any:
            """One station stack with the ARQ/fault insertions applied."""
            inserted = _insertions(plan, rng, address)
            if arq:
                recovery = GoBackNArq(
                    "recovery", retransmit_timeout=0.12, max_retries=40, window=4
                )
                inserted.insert(0, ("mac", "before", recovery))
            return build_wireless_station(
                sim,
                medium,
                address=address,
                rng=rng.stream(f"mac:{address}"),
                tier=SCENARIO_TIER,
                insertions=inserted,
                metrics=registry,
            )

        stacks = [station(0), station(1)]
        observe(registry, *stacks)
        inbox = collect_bytes(stacks[1])
        collect_bytes(stacks[0])  # sink station 0's deliveries too
        sent = [f"wl-{seed}-{i}".encode() for i in range(messages)]
        for message in sent:
            send_bytes(stacks[0], message)
        evidence = Evidence(
            scenario=name,
            seed=seed,
            metrics=registry,
            sent={"0->1": sent},
            received={"0->1": inbox},
        )
        _drive(sim, evidence, lambda: len(inbox) >= len(sent), timeout)
        return evidence

    return Scenario(name, "wireless", execute, DELIVERY_MONITORS)


# ----------------------------------------------------------------------
# TCP: drop + duplicate between RD and CM
# ----------------------------------------------------------------------
def tcp(
    nbytes: int = 20_000,
    drop: float = 0.08,
    duplicate: float = 0.05,
    timeout: float = 300.0,
) -> Scenario:
    """Sublayered TCP transferring a byte stream under drop + duplication."""
    # Below RD (whose job is reliable delivery), above CM: data
    # segments and acks take the faults, the connection handshake
    # (CM's own segments) does not — the invariant under test is
    # RD's, not CM's.
    plan = [
        FaultSpec(
            "rd", "after", "drop", DropFault,
            FaultSchedule.with_probability(drop),
        ),
        FaultSpec(
            "rd", "after", "dup", DuplicateFault,
            FaultSchedule.with_probability(duplicate),
        ),
    ]
    name = "tcp-drop-dup"

    def execute(seed: int, observe: Observe) -> Evidence:
        """One TCP transfer a->b over a faulty link; evidence is the bytes."""
        config = TcpConfig(mss=1000)
        sim, a, b, evidence = _pair(
            name,
            "tcp",
            seed,
            observe,
            plan,
            lambda end, sim, registry, inserted: SublayeredTcpHost(
                end,
                sim.clock(),
                config,
                metrics=registry,
                tier=SCENARIO_TIER,
                insertions=inserted,
            ),
            LinkConfig(delay=0.02, rate_bps=8_000_000),
        )
        b.listen(80)
        data = bytes((seed + i) % 251 for i in range(nbytes))
        evidence.sent["a->b"] = data
        received = evidence.received
        received["a->b"] = b""

        def accept(peer_sock: Any) -> None:
            """Track the receiver-side byte stream as it grows."""
            peer_sock.on_data = lambda _chunk: received.__setitem__(
                "a->b", peer_sock.bytes_received()
            )

        b.on_accept = accept
        sock = a.connect(12345, 80)
        sock.on_connect = lambda: (sock.send(data), sock.close())
        _drive(sim, evidence, lambda: len(received["a->b"]) >= len(data), timeout)
        return evidence

    return Scenario(name, "tcp", execute, DELIVERY_MONITORS)


# ----------------------------------------------------------------------
# QUIC: drop below the record sublayer (loss recovery lives above)
# ----------------------------------------------------------------------
def quic(
    nbytes: int = 15_000,
    streams: int = 2,
    drop: float = 0.1,
    timeout: float = 300.0,
) -> Scenario:
    """QUIC streams transferring under packet drop below the record layer."""
    # Below record = every encrypted packet.  start_unit=2 lets the
    # first handshake flight through so trials measure steady-state
    # loss recovery, not handshake-retry luck.
    plan = [
        FaultSpec(
            "record", "after", "drop", DropFault,
            FaultSchedule(probability=drop, start_unit=2),
        ),
    ]
    name = "quic-drop"

    def execute(seed: int, observe: Observe) -> Evidence:
        """A multi-stream QUIC transfer a->b over a lossy link."""
        sim, a, b, evidence = _pair(
            name,
            "quic",
            seed,
            observe,
            plan,
            lambda end, sim, registry, inserted: QuicHost(
                end,
                sim.clock(),
                metrics=registry,
                tier=SCENARIO_TIER,
                insertions=inserted,
            ),
            LinkConfig(delay=0.02, rate_bps=8_000_000),
        )
        b.listen(443)
        payloads = {
            sid: bytes((seed + sid + i) % 251 for i in range(nbytes))
            for sid in range(1, streams + 1)
        }
        conn = a.connect(5000, 443)
        conn.on_connect = lambda: [
            conn.send(sid, data, fin=True) for sid, data in payloads.items()
        ]

        def done() -> bool:
            """All stream payloads fully received on the b side."""
            peer = b.connection_for(443, 5000)
            return peer is not None and all(
                len(peer.stream_bytes(sid)) >= len(data)
                for sid, data in payloads.items()
            )

        evidence.sent.update(
            (f"stream-{sid}", data) for sid, data in payloads.items()
        )
        _drive(sim, evidence, done, timeout)
        peer = b.connection_for(443, 5000)
        for sid in payloads:
            evidence.received[f"stream-{sid}"] = (
                peer.stream_bytes(sid) if peer is not None else b""
            )
        return evidence

    return Scenario(name, "quic", execute, DELIVERY_MONITORS)


# ----------------------------------------------------------------------
# Routing: link blackhole window, reconvergence required
# ----------------------------------------------------------------------
def routing(converge_timeout: float = 30.0) -> Scenario:
    """A diamond topology rides out a link blackhole window.

    The failed link is the blackhole; the invariant is Zave's "remaining
    improbable" one: the control plane must reconverge to correct
    routes after both the failure and the repair, and data must flow
    again each time.
    """
    name = "routing-blackhole"

    def script(
        topo: Topology,
        converged: Callable[[], bool],
        observations: dict[str, bool],
    ) -> None:
        """Fail and repair link 1-2, recording convergence and delivery."""
        observations["delivery-before-blackhole"] = delivers(
            topo, 1, 4, b"before"
        )
        topo.fail_link(1, 2)
        observations["reconvergence-after-blackhole"] = converged()
        observations["routes-correct-after-blackhole"] = all(
            topo.routes_correct(source) for source in topo.routers
        )
        observations["delivery-after-blackhole"] = delivers(
            topo, 1, 4, b"during"
        )
        topo.restore_link(1, 2)
        observations["reconvergence-after-repair"] = converged()
        observations["routes-correct-after-repair"] = all(
            topo.routes_correct(source) for source in topo.routers
        )

    def execute(seed: int, observe: Observe) -> Evidence:
        """Run the blackhole script over the diamond's four links."""
        edges = [(1, 2), (2, 4), (1, 3), (3, 4)]
        return routed_trial(
            name, seed, observe, edges, converge_timeout, script
        )

    return Scenario(name, "routing", execute, ROUTING_MONITORS)


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------
def default_matrix() -> list[Scenario]:
    """The full campaign: every profile, its characteristic faults."""
    return [hdlc(), wireless(), tcp(), quic(), routing()]


def smoke_matrix() -> list[Scenario]:
    """Reduced traffic for CI smoke runs: same shapes, less volume."""
    return [
        hdlc(messages=6, timeout=120.0),
        wireless(messages=6, timeout=90.0),
        tcp(nbytes=6_000, timeout=180.0),
        quic(nbytes=5_000, streams=1, timeout=180.0),
        routing(),
    ]


def negative_matrix() -> list[Scenario]:
    """The deliberately-red control: recovery removed, monitors must
    fire.  Kept out of ``default``/``smoke`` so a green campaign stays
    meaningful; CI runs it separately to prove the flight recorder
    dumps a bundle when trials go red.  ``drop=0.4`` makes the medium
    hostile enough that every early seed actually loses data, so the
    red comes from the loss monitors rather than the injection-evidence
    backstop."""
    return [wireless(messages=8, drop=0.4, arq=False, timeout=90.0)]


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

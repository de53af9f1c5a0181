"""The fleet conductor: serial and sharded runs.

Two execution modes over the same :class:`~repro.topo.region
.RegionWorld` regions, producing the same artifacts byte-for-byte:

* **serial** — every region on one simulator; cross-region sends are
  scheduled straight into the destination region.  The ground truth.
* **sharded** — one simulator per region, advanced in
  conservative-lookahead windows; cross-region sends travel through
  outboxes the conductor drains at window boundaries.

The conservative window rule: with every inter-region link having
delay Δ (the lookahead) and L the global lower bound on pending event
times, every region may safely execute the half-open window
``[L, L + Δ)`` — any cross-region send inside the window departs at
``t >= L`` and so arrives at ``t + Δ >= L + Δ``, beyond the horizon.
Events at *exactly* ``L + Δ`` must wait for the next window (the
classic off-by-one the shard-boundary tests pin), which is why region
simulators run with ``inclusive=False``.  Each round advances the
bound by at least Δ, so progress is guaranteed; delivery ranks (see
:mod:`repro.topo.links`) make same-instant execution order identical
to the serial run's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..core.errors import ConfigurationError
from ..obs.export import merge_jsonl, spans_to_jsonl
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Simulator
from .region import CrossEntry, RegionWorld
from .spec import FleetSpec, static_fibs
from .traffic import Flow, plan_traffic

MODES = ("serial", "sharded")

#: Virtual seconds of control-plane warmup before traffic starts in
#: protocol mode (hello exchange + LSP flooding on fleet diameters).
PROTOCOL_WARMUP = 30.0


@dataclass
class FleetResult:
    """All artifacts of one fleet run, region-structured."""

    spec: FleetSpec
    mode: str
    routing: str
    regions: list[dict[str, Any]]
    converged: bool | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def deliveries(self) -> list[dict[str, Any]]:
        """All deliveries: per-region execution order, region-major."""
        return [d for region in self.regions for d in region["deliveries"]]

    @property
    def events(self) -> int:
        """Total executed events (conductor-recorded: per-region sim
        counts double-count the shared serial simulator)."""
        return int(self.extras.get("events", 0))

    def merged_snapshot(self) -> dict[str, Any]:
        """Region registries folded in region order (names are unique
        per node/link, so the fold equals a single shared registry)."""
        registry = MetricsRegistry()
        for region in self.regions:
            registry.merge_snapshot(region["snapshot"])
        return registry.snapshot()

    def summary(self) -> dict[str, Any]:
        """Run shape and headline counts (the ``summary.json`` payload)."""
        return {
            "spec": self.spec.name,
            "nodes": len(self.spec.nodes),
            "edges": len(self.spec.edges),
            "shards": self.spec.shards,
            "mode": self.mode,
            "routing": self.routing,
            "delivered": len(self.deliveries),
            "converged": self.converged,
            "events": self.events,
        }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_fleet(
    spec: FleetSpec,
    mode: str = "serial",
    routing: str = "static",
    flows: int = 8,
    packets: int = 10,
    interval: float = 0.01,
    duration: float | None = None,
    jobs: int | None = None,
    link_changes: list[tuple[float, int, int, bool]] | None = None,
) -> FleetResult:
    """Run a fleet to quiescence (or ``duration``) and collect artifacts.

    ``mode="sharded"`` uses the spec's region partition and interleaves
    the regions in conservative-lookahead windows.  ``jobs`` is accepted
    and ignored: every mode runs in this process.
    ``link_changes`` are scheduled ``(t, a, b, alive)`` cut/restore
    events, applied identically in every mode.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    if routing == "protocol" and duration is None:
        raise ConfigurationError(
            "protocol routing never quiesces (periodic hellos); pass duration"
        )
    traffic_at = PROTOCOL_WARMUP if routing == "protocol" else 0.0
    plan = [
        replace(flow, start=flow.start + traffic_at)
        for flow in plan_traffic(spec, flows, packets, interval=interval)
    ]
    if routing == "static":
        static_fibs(spec)  # warm the pure cache once
    if mode == "serial" or spec.shards == 1:
        return _run_serial(spec, mode, routing, plan, duration, link_changes)
    return _run_windows_inprocess(spec, routing, plan, duration, link_changes)


def _prepare(world: RegionWorld, plan: list[Flow], link_changes) -> None:
    world.start_routing()
    world.schedule_traffic(plan)
    for t, a, b, alive in link_changes or []:
        world.schedule_link_change(t, a, b, alive)


def _finish(world: RegionWorld, routing: str) -> dict[str, Any]:
    result = world.result()
    result["converged"] = world.routes_correct() if routing == "protocol" else None
    return result


def _assemble(
    spec: FleetSpec, mode: str, routing: str, regions: list[dict[str, Any]]
) -> FleetResult:
    converged: bool | None = None
    if routing == "protocol":
        converged = all(region["converged"] for region in regions)
    return FleetResult(
        spec=spec, mode=mode, routing=routing, regions=regions, converged=converged
    )


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------
def _run_serial(
    spec: FleetSpec,
    mode: str,
    routing: str,
    plan: list[Flow],
    duration: float | None,
    link_changes,
) -> FleetResult:
    sim = Simulator()
    worlds: dict[int, RegionWorld] = {}

    def dispatch(entry: CrossEntry) -> None:
        worlds[spec.region_of(entry[2])].inject([entry])

    for region_id in range(spec.shards):
        worlds[region_id] = RegionWorld(
            spec, region_id, sim, routing=routing, cross_sink=dispatch
        )
    for world in worlds.values():
        _prepare(world, plan, link_changes)
    if duration is None:
        sim.run_until_idle()
    else:
        sim.run(until=duration)
    regions = [_finish(worlds[r], routing) for r in range(spec.shards)]
    result = _assemble(spec, mode, routing, regions)
    result.extras["events"] = sim.events_processed
    return result


# ----------------------------------------------------------------------
# Sharded
# ----------------------------------------------------------------------
def _run_windows_inprocess(
    spec: FleetSpec,
    routing: str,
    plan: list[Flow],
    duration: float | None,
    link_changes,
) -> FleetResult:
    worlds = [
        RegionWorld(spec, region_id, Simulator(), routing=routing)
        for region_id in range(spec.shards)
    ]
    for world in worlds:
        _prepare(world, plan, link_changes)
    delta = spec.link_delay
    windows = 0
    while True:
        for world in worlds:
            for entry in world.drain_outbox():
                worlds[spec.region_of(entry[2])].inject([entry])
        bound = min(world.sim.next_event_time() for world in worlds)
        if bound == float("inf") or (duration is not None and bound > duration):
            break
        windows += 1
        horizon = bound + delta
        if duration is not None and horizon > duration:
            # Final window [bound, duration]: narrower than Δ, so any
            # cross send inside it still arrives past `duration`.
            for world in worlds:
                world.sim.run(until=duration, inclusive=True)
        else:
            for world in worlds:
                world.sim.run(until=horizon, inclusive=False)
    regions = [_finish(world, routing) for world in worlds]
    result = _assemble(spec, "sharded", routing, regions)
    result.extras["events"] = sum(world.sim.events_processed for world in worlds)
    result.extras["windows"] = windows
    return result


# ----------------------------------------------------------------------
# Canonical artifact files
# ----------------------------------------------------------------------
def write_artifacts(result: FleetResult, out_dir: Any) -> dict[str, str]:
    """Write the canonical artifact set; returns {artifact: path}.

    * ``deliveries.jsonl`` — every delivery, region-major in per-region
      execution order (the byte-for-byte delivery-order witness);
    * ``spans-r<N>.jsonl`` — each region's trace, virtual-clock spans;
    * ``spans.jsonl`` — the regions merged via
      :func:`~repro.obs.export.merge_jsonl` (sids rebased);
    * ``metrics.json`` — the merged metrics snapshot;
    * ``summary.json`` — run shape and counts.

    Every file depends only on simulated behavior, so a serial and a
    sharded run of the same spec must produce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}

    deliveries = out / "deliveries.jsonl"
    with open(deliveries, "w", encoding="utf-8") as fp:
        for record in result.deliveries:
            fp.write(json.dumps(record, sort_keys=True) + "\n")
    paths["deliveries"] = str(deliveries)

    region_files = []
    for region in result.regions:
        region_path = out / f"spans-r{region['region']}.jsonl"
        spans_to_jsonl(region["spans"], region_path)
        region_files.append(region_path)
        paths[f"spans-r{region['region']}"] = str(region_path)
    merged = out / "spans.jsonl"
    merge_jsonl(region_files, merged)
    paths["spans"] = str(merged)

    metrics = out / "metrics.json"
    metrics.write_text(
        json.dumps(result.merged_snapshot(), sort_keys=True, indent=1) + "\n"
    )
    paths["metrics"] = str(metrics)

    summary = out / "summary.json"
    summary.write_text(json.dumps(result.summary(), sort_keys=True, indent=1) + "\n")
    paths["summary"] = str(summary)
    return paths

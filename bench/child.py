"""One workload in one fresh interpreter.

``python3 -m bench.child WORKLOAD SEED SECONDS MODE SPAWNED [SPANS]``
prints one JSON object on its last line.  ``MODE`` is ``setup`` (prepare,
report ``setup_s``, exit), ``e2e`` (one untraced phase of ``SECONDS``) or
``layers`` (an untraced reference phase, then a traced phase on a fresh
world).  ``SPAWNED`` is the parent's ``time.time()`` just before it
started this process, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from typing import Any

from .metrics import COMPONENTS, per_layer
from .workloads import CHECK_UNITS, Phase, Workload, load

#: Share of ``--seconds`` the untraced reference phase of a ``layers``
#: run gets; the traced phase gets the rest.
REFERENCE_SHARE = 0.4


def quantile(values: list[float], q: float) -> float:
    """The exact order statistic at rank ``ceil(q * n)`` (1-based)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


#: ``ops_per_s`` is the median rate of this many equal-sized groups of
#: consecutive timed units, so a stall of a second or two on a shared
#: host moves one group, not the result.
RATE_GROUPS = 10


def grouped(values: list[float], groups: int) -> list[list[float]]:
    """``values`` cut into ``groups`` runs of (nearly) equal length."""
    groups = max(1, min(groups, len(values)))
    bounds = [len(values) * g // groups for g in range(groups + 1)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def end_to_end(workload: Workload, phase: Phase, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced phase."""
    rates, previous_end = [], 0.0
    for group in grouped(phase.done_s, RATE_GROUPS):
        rates.append(len(group) * workload.OPS_PER_UNIT / (group[-1] - previous_end))
        previous_end = group[-1]
    tails = [
        quantile(group, workload.TAIL)
        for group in grouped(phase.unit_s, workload.TAIL_GROUPS)
    ]
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": quantile(phase.unit_s, 0.5) * 1e3,
        "op_tail_ms": statistics.median(tails) * 1e3,
        "peak_rss_mb": phase.rss_mb,
    }


def layers(
    workload: Workload,
    reference: Phase,
    traced: Phase,
    tracer: Any,
    fixed: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric from a reference phase and a traced one."""
    out = dict.fromkeys(per_layer(), 0.0)
    traced_ops = max(traced.ops, 1)
    for component in COMPONENTS:
        out[f"{component}.self_us_per_op"] = (
            tracer.self_ns.get(component, 0) / 1e3 / traced_ops
        )
        out[f"{component}.calls_per_op"] = tracer.calls.get(component, 0) / traced_ops
    named_ns = sum(tracer.self_ns.get(component, 0) for component in COMPONENTS)
    traced_ns = traced.wall_s * 1e9
    out["trace.coverage_share"] = named_ns / traced_ns
    out["trace.overhead_x"] = (traced.wall_s / traced_ops) / (
        reference.wall_s / max(reference.ops, 1)
    )
    out["core.bits.objects_per_op"] = tracer.bits_objects / traced_ops

    counts = reference.counts
    ops = max(counts.get("ops", 0), 1)
    for name in (
        "sim.engine.events",
        "sim.link.lost",
        "sim.link.corrupted",
        "sim.virtual_completion_s",
        "transport.rd.retransmits",
        "transport.rd.duplicates_dropped",
        "datalink.recovery.retransmits",
        "datalink.recovery.corrupt_dropped",
        "net.endpoint.decode_errors",
        "net.endpoint.unroutable",
    ):
        out[name] = counts.get(name, 0)
    out["transport.osr.segments_per_op"] = counts.get("transport.osr.segments", 0) / ops
    out["core.hops_per_op"] = counts.get("core.hops", 0) / ops
    if "sim.engine.events" in counts:
        # The counts cover the first CHECK_UNITS units; so must the time.
        out["sim.engine.events_per_s"] = counts["sim.engine.events"] / sum(
            reference.unit_s[:CHECK_UNITS]
        )
    if "net.endpoint.datagrams" in counts:
        out["net.endpoint.datagrams_per_op"] = counts["net.endpoint.datagrams"] / ops
        out["net.endpoint.wire_bytes_per_payload_byte"] = counts[
            "net.endpoint.wire_bytes"
        ] / (ops * workload.PAYLOAD_BYTES_PER_OP)  # type: ignore[attr-defined]
        out["net.loop.busy_share"] = reference.cpu_s / reference.wall_s
        out["net.loop.lag_p99_ms"] = quantile(reference.lag_s or [0.0], 0.99) * 1e3
        out["net.loop.other_us_per_op"] = (
            (traced_ns - tracer.root_ns) / 1e3 / traced_ops
        )
    out.update(fixed)
    return out


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, spawned = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    import_started = time.perf_counter()
    cls = load(name)
    import_ms = (time.perf_counter() - import_started) * 1e3

    workload = cls(int(seed))
    workload.prepare()
    setup_s = time.time() - float(spawned)
    result: dict[str, Any] = {"setup_s": setup_s}
    if mode == "e2e":
        phase = workload.measure(float(seconds))
        result.update(
            attempted=phase.attempted,
            failed=phase.failed,
            units=len(phase.unit_s),
            metrics=end_to_end(workload, phase, setup_s),
        )
    elif mode == "layers":
        from .tracer import Tracer

        reference = workload.measure(float(seconds) * REFERENCE_SHARE, heartbeat=True)
        fixed = {"core.import_ms": import_ms, "compose.build_ms": workload.build_ms}
        fixed.update(workload.layer_extras())
        workload.close()

        tracer = Tracer()
        tracer.install()
        workload = cls(int(seed), tracer)
        workload.prepare()
        tracer.reset()
        traced = workload.measure(float(seconds) * (1 - REFERENCE_SHARE))
        result.update(
            attempted=reference.attempted + traced.attempted,
            failed=reference.failed + traced.failed,
            units=len(traced.unit_s),
            metrics=layers(workload, reference, traced, tracer, fixed),
        )
        if spans_path:
            result["spans"] = tracer.write_spans(spans_path)
    workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

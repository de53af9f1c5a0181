"""C7 — hop cost by instrumentation tier.

Quantifies what the compiled wiring plans buy: the same 8-deep
passthrough chain is built from one profile at each tier and timed on
nothing but hops — no protocol work, no simulator — so the measured
ns/hop is purely the per-crossing host cost each tier compiles in.

* ``full``  — InterfaceCall record + acting_as per hop (litmus-ready);
* ``metrics`` — one integer counter bump per hop;
* ``off``   — direct bound-method chains.

The acceptance bound for the refactor is that ``off`` is at least 3x
faster per hop than ``full``: if it is not, the "compiled" plans are
still paying for instrumentation nobody attached.  A fourth timed row
(``full`` + span hook) shows that attaching an observer raises the
cost again — pay-only-when-watching, in both directions.
"""

import contextlib
import time

from _util import table, write_bench_json, write_result

from repro.compose import SlotSpec, StackBuilder, StackProfile
from repro.core import PassthroughSublayer, TIERS

DEPTH = 8
#: app->top plus one hop per inter-sublayer boundary plus bottom->wire.
HOPS_PER_SEND = DEPTH + 1
SENDS = 2_000
ROUNDS = 5

CHAIN_PROFILE = StackProfile(
    name="c7-chain",
    slots=tuple(
        SlotSpec(f"p{i}", lambda params, i=i: PassthroughSublayer(f"p{i}"))
        for i in range(DEPTH)
    ),
    doc=f"{DEPTH} passthrough sublayers; every hop is pure overhead.",
)


def build_chain(tier: str):
    stack = StackBuilder(CHAIN_PROFILE, name=f"c7-{tier}", tier=tier).build()
    stack.on_transmit = lambda sdu, **meta: None
    return stack


@contextlib.contextmanager
def null_span(direction, caller, provider, sdu, meta):
    yield


def time_chain(stack, sends: int = SENDS) -> float:
    """Median wall seconds per hop over ROUNDS timed batches."""
    payload = b"x" * 64
    send = stack.send
    for _ in range(100):  # warm-up
        send(payload)
    samples = []
    for _ in range(ROUNDS):
        stack.interface_log.clear()
        stack.access_log.clear()
        start = time.perf_counter()
        for _ in range(sends):
            send(payload)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2] / (sends * HOPS_PER_SEND)


def test_c7_hopcost(benchmark):
    stacks = {tier: build_chain(tier) for tier in TIERS}
    per_hop = {}
    per_hop["full"] = benchmark.pedantic(
        lambda: time_chain(stacks["full"]), rounds=1, iterations=1
    )
    per_hop["metrics"] = time_chain(stacks["metrics"])
    per_hop["off"] = time_chain(stacks["off"])

    spanned = build_chain("off")
    spanned.span_hook = null_span
    per_hop["off+span"] = time_chain(spanned)

    # Each tier really did what it claims on the books.
    full = stacks["full"]
    full.interface_log.clear()
    full.send(b"y")
    assert full.interface_log.crossings() == HOPS_PER_SEND
    metrics = stacks["metrics"]
    metrics.hop_counters.reset()
    metrics.send(b"y")
    assert metrics.hop_counters.down == HOPS_PER_SEND
    assert metrics.interface_log.crossings() == 0
    off = stacks["off"]
    off.send(b"y")
    assert off.interface_log.crossings() == 0
    assert len(off.access_log.records) == 0
    # off-tier hops with no observers are the bound methods themselves
    assert off.sublayer("p0")._send_down == off.sublayer("p1").from_above

    full_over_off = per_hop["full"] / per_hop["off"]
    metrics_over_off = per_hop["metrics"] / per_hop["off"]
    span_over_off = per_hop["off+span"] / per_hop["off"]

    rows = [
        {
            "tier": tier,
            "ns_per_hop": round(cost * 1e9, 1),
            "vs_off": f"{cost / per_hop['off']:.2f}x",
        }
        for tier, cost in per_hop.items()
    ]
    lines = table(rows)
    lines.append("")
    lines.append(
        f"{DEPTH}-sublayer passthrough chain, {HOPS_PER_SEND} hops/send, "
        f"{SENDS} sends/round, median of {ROUNDS} rounds"
    )
    lines.append(
        f"full tier pays {full_over_off:.1f}x the bare-chain hop cost "
        f"(metrics tier {metrics_over_off:.1f}x); attaching a span hook "
        f"to the off tier recompiles the cost back in ({span_over_off:.1f}x) "
        "— observability is a compilation choice, not a per-hop branch"
    )
    write_result("c7_hopcost", lines)
    write_bench_json(
        "c7_hopcost",
        wall_s=per_hop["full"] * SENDS * HOPS_PER_SEND,
        extra={
            "ns_per_hop_full": round(per_hop["full"] * 1e9, 1),
            "ns_per_hop_metrics": round(per_hop["metrics"] * 1e9, 1),
            "ns_per_hop_off": round(per_hop["off"] * 1e9, 1),
            "ns_per_hop_off_span": round(per_hop["off+span"] * 1e9, 1),
            "full_over_off_x": round(full_over_off, 3),
            "metrics_over_off_x": round(metrics_over_off, 3),
            "span_over_off_x": round(span_over_off, 3),
            "hops_per_send": HOPS_PER_SEND,
        },
    )

    # the tentpole acceptance bound
    assert full_over_off >= 3.0, (
        f"off tier is only {full_over_off:.2f}x faster per hop than full"
    )
    # the metrics tier must sit strictly between the extremes
    assert per_hop["off"] < per_hop["metrics"] < per_hop["full"]

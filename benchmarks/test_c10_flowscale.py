"""C10 — symbolic flow analysis: how proof time scales with topology size.

The static data-plane gate only earns its place in CI if analysis time
grows gracefully with topology size.  This benchmark proves the four
properties over square grids at 16, 64, 256 and 1 024 nodes (256 is the
grid the fleet benchmark simulates) and reports each cold proof time
and the number of destination classes the analysis walks.  ``wall_s``
stays the 64-node time, comparable with earlier baselines.  The times
are hardware-dependent, so nothing here is gated.
"""

import time

from _util import table, write_bench_json, write_result

from repro.flow.examples import grid
from repro.flow.properties import analyze

SIDES = [4, 8, 16, 32]  # 16, 64, 256, 1024 nodes
REPORTED_SIDE = 8


def run_all():
    """Analyze each grid once; returns per-size measurements."""
    sizes = []
    for side in SIDES:
        spec = grid(side)
        start = time.perf_counter()
        report = analyze(spec)
        cold_s = time.perf_counter() - start
        assert report.passed, f"grid{side}x{side} refuted a property"
        sizes.append(
            {
                "side": side,
                "nodes": len(spec.nodes),
                "classes": report.stats["classes"],
                "cold_s": cold_s,
            }
        )
    return sizes


def test_c10_flowscale(benchmark):
    sizes = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        {
            "topology": f"grid{m['side']}x{m['side']}",
            "nodes": m["nodes"],
            "destination classes": m["classes"],
            "cold_ms": round(m["cold_s"] * 1e3, 1),
        }
        for m in sizes
    ]
    lines = table(rows)
    lines.append("")
    lines.append(
        "four properties (no-escape, blackhole-freedom, loop-freedom, "
        "isolation) proved per topology"
    )
    write_result("c10_flowscale", lines)

    largest = next(m for m in sizes if m["side"] == REPORTED_SIDE)
    write_bench_json(
        "c10_flowscale",
        wall_s=largest["cold_s"],
        extra={
            "nodes": largest["nodes"],
            "cold_ms_by_nodes": {
                str(m["nodes"]): round(m["cold_s"] * 1e3, 1) for m in sizes
            },
        },
    )

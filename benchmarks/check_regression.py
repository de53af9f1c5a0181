#!/usr/bin/env python3
"""Benchmark regression gate: fresh BENCH_*.json vs committed baselines.

Compares the machine-readable results the C-series benchmarks emit
(``benchmarks/results/BENCH_<name>.json``) against the committed
baselines in ``benchmarks/baselines/`` and fails (exit 1) when a
watched metric regresses past the tolerance.

Only *dimensionless* metrics are gated — overhead ratios like
``full_over_off_x`` (C7: full-tier hop cost over off-tier hop cost) and
``overhead_untuned_x`` (C3: sublayered wall clock over monolithic).
Absolute wall/ns numbers differ across runner hardware, so they are
reported but never gated.  The gate is one-sided: a metric *improving*
past the tolerance is reported as such and passes; call with
``--update`` to refresh the baselines after a deliberate change.

Usage:
    python benchmarks/check_regression.py [--tolerance 0.25] [--update]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).parent
RESULTS = HERE / "results"
BASELINES = HERE / "baselines"

#: Watched dimensionless metrics per benchmark.  Direction "up" means a
#: larger value is a regression (these are all overhead ratios).
WATCHED: dict[str, dict[str, str]] = {
    "c3_tune": {
        "overhead_untuned_x": "up",
        "overhead_tuned_x": "up",
        "overhead_traced_x": "up",
    },
    "c7_hopcost": {
        "full_over_off_x": "up",
        "metrics_over_off_x": "up",
    },
    "c8_faultcost": {
        "noop_over_plain_hop_x": "up",
    },
    # C11: what the codegen + batch fast path buys at tier=off.
    # batch_speedup_x: send_batch(64) through the fused push_batch over
    # the scalar chain walk; scalar_fused_speedup_x: one send() through
    # the fused function over the chain walk.  Both are down = regression
    # (the hard >=5x bound lives inside the benchmark itself).
    "c11_batch": {
        "batch_speedup_x": "down",
        "scalar_fused_speedup_x": "down",
    },
    # C12: the cost of watching.  sampled001_over_untraced_x: a
    # campaign-style trial with sampled tracing at rate 0.01 over the
    # same trial untraced (the hard <=1.05 bound lives inside the
    # benchmark).  hist_observe_over_inc_x: observe_hist hot path over
    # a counter inc (hard <=1.5 inside).  hist_hop_over_plain_x: a
    # metrics-tier chain with the per-traversal latency histogram over
    # the same chain without it.
    # The batched metrics-tier ratios (batch64_over_scalar_x,
    # batch64_hist_over_scalar_x) are reported below, not watched: their
    # hard <=1.05 bounds live inside the benchmark and sit tighter than
    # any tolerance band around a sub-microsecond measurement.
    "c12_obscost": {
        "sampled001_over_untraced_x": "up",
        "hist_observe_over_inc_x": "up",
        "hist_hop_over_plain_x": "up",
    },
    # C10 (flow-analysis scaling) and C13 (fleet throughput) have no
    # dimensionless metric left to gate; their numbers are reported
    # below, and C13 asserts serial == sharded delivery inline.
    "c10_flowscale": {},
    "c13_toposcale": {},
    # C14: the live-runtime delivery contract.  echo_ratio_x is bytes
    # echoed back over bytes sent through real localhost UDP sockets —
    # 1.0 by construction (the benchmark asserts losslessness inline),
    # gated with direction "down" so any loss is a hard failure while
    # throughput/latency stay informational (hardware-dependent).
    "c14_netload": {
        "echo_ratio_x": "down",
    },
}

#: Context shown alongside the gate (never gated: hardware-dependent).
REPORTED: dict[str, list[str]] = {
    "c3_tune": ["wall_s", "span_overhead_disabled"],
    "c7_hopcost": ["ns_per_hop_full", "ns_per_hop_off"],
    "c8_faultcost": ["ns_per_send_plain", "ns_per_send_noop"],
    "c10_flowscale": ["nodes", "wall_s"],
    "c11_batch": [
        "ns_per_unit_scalar_chain",
        "ns_per_unit_scalar_fused",
        "ns_per_unit_batch_fused",
    ],
    "c12_obscost": [
        "batch64_over_scalar_x",
        "batch64_hist_over_scalar_x",
        "ns_per_send_untraced",
        "ns_per_send_sample001",
        "ns_per_inc",
        "ns_per_observe",
        "ns_per_flush_sample",
    ],
    "c13_toposcale": [
        "pps_serial_64",
        "pps_sharded_64",
        "pps_serial_256",
        "pps_sharded_256",
        "pps_serial_1024",
        "pps_sharded_1024",
        "windows_1024",
        "cpus",
    ],
    "c14_netload": [
        "throughput_mbps",
        "msgs_per_sec",
        "rtt_p50_ms",
        "rtt_p99_ms",
    ],
}


def load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def check(bench: str, tolerance: float) -> list[str]:
    """Return a list of regression messages for one benchmark."""
    result_path = RESULTS / f"BENCH_{bench}.json"
    baseline_path = BASELINES / f"BENCH_{bench}.json"
    if not result_path.exists():
        return [f"{bench}: no fresh result at {result_path} (run the benchmark first)"]
    if not baseline_path.exists():
        return [f"{bench}: no committed baseline at {baseline_path}"]
    result = load(result_path)
    baseline = load(baseline_path)
    failures: list[str] = []
    for metric, direction in WATCHED[bench].items():
        if metric not in baseline:
            failures.append(f"{bench}.{metric}: missing from baseline")
            continue
        if metric not in result:
            failures.append(f"{bench}.{metric}: missing from fresh result")
            continue
        base, new = float(baseline[metric]), float(result[metric])
        if base <= 0:
            failures.append(f"{bench}.{metric}: non-positive baseline {base}")
            continue
        change = new / base - 1.0
        regressed = change > tolerance if direction == "up" else change < -tolerance
        status = "REGRESSED" if regressed else (
            "improved" if abs(change) > tolerance else "ok"
        )
        print(
            f"  {bench}.{metric}: baseline {base:g}, now {new:g} "
            f"({change:+.1%}) [{status}]"
        )
        if regressed:
            failures.append(
                f"{bench}.{metric}: {base:g} -> {new:g} "
                f"({change:+.1%} > {tolerance:.0%} tolerance)"
            )
    for metric in REPORTED.get(bench, []):
        if metric in result:
            base = baseline.get(metric, "-")
            print(f"  {bench}.{metric}: baseline {base}, now {result[metric]} "
                  "[informational]")
    return failures


def update_baselines() -> int:
    BASELINES.mkdir(exist_ok=True)
    copied = 0
    for bench in WATCHED:
        src = RESULTS / f"BENCH_{bench}.json"
        if not src.exists():
            print(f"skip {bench}: no fresh result to promote")
            continue
        shutil.copy(src, BASELINES / src.name)
        print(f"promoted {src} -> {BASELINES / src.name}")
        copied += 1
    return 0 if copied else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative worsening per metric (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="copy fresh results over the committed baselines and exit",
    )
    args = parser.parse_args(argv)
    if args.update:
        return update_baselines()
    failures: list[str] = []
    for bench in WATCHED:
        print(f"checking {bench} (tolerance {args.tolerance:.0%}):")
        failures.extend(check(bench, args.tolerance))
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

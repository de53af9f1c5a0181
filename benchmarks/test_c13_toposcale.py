"""C13 — fleet-scale topology simulation: serial vs sharded throughput.

If sublayering composes at every scale (the paper's claim), the
simulation harness has to scale with it: this benchmark instantiates
grid fleets of 64, 256, and 1024 router stacks, pushes the same
seeded traffic plan through each, and measures delivered packets per
wall-second two ways — the serial conductor (one simulator, ground
truth) and the sharded conductor (4 regions, conservative-lookahead
windows, all in one process).

The determinism contract is asserted inline: at every size the
sharded run's delivery order and merged metrics are byte-identical to
the serial run's.  Throughput is hardware-dependent and only reported.
"""

import os
import time

from _util import table, write_bench_json, write_result

from repro.topo import make_spec, run_fleet, static_fibs

SIZES = [64, 256, 1024]
SHARDS = 4
FLOWS = {64: 16, 256: 32, 1024: 64}
PACKETS = 25


def run_size(nodes: int) -> dict:
    spec = make_spec("grid", nodes, shards=SHARDS, seed=7)
    static_fibs(spec)  # oracle FIBs are shared setup, not throughput
    kwargs = dict(routing="static", flows=FLOWS[nodes], packets=PACKETS)

    start = time.perf_counter()
    serial = run_fleet(spec, mode="serial", **kwargs)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = run_fleet(spec, mode="sharded", **kwargs)
    sharded_s = time.perf_counter() - start

    assert serial.deliveries == sharded.deliveries, (
        f"sharded delivery order diverged from serial at {nodes} nodes"
    )
    assert serial.merged_snapshot() == sharded.merged_snapshot(), (
        f"sharded metrics diverged from serial at {nodes} nodes"
    )
    delivered = len(serial.deliveries)
    assert delivered == FLOWS[nodes] * PACKETS
    return {
        "nodes": nodes,
        "delivered": delivered,
        "events": serial.events,
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "pps_serial": delivered / serial_s,
        "pps_sharded": delivered / sharded_s,
        "windows": sharded.extras.get("windows", 0),
    }


def test_c13_toposcale(benchmark):
    results = benchmark.pedantic(
        lambda: [run_size(nodes) for nodes in SIZES], rounds=1, iterations=1
    )

    rows = [
        {
            "nodes": m["nodes"],
            "packets": m["delivered"],
            "serial pkts/s": round(m["pps_serial"], 1),
            "sharded pkts/s": round(m["pps_sharded"], 1),
            "windows": m["windows"],
        }
        for m in results
    ]
    lines = table(rows)
    lines.append("")
    lines.append(
        f"grid fleets, {SHARDS} regions, in-process windows; "
        f"{os.cpu_count()} CPUs on this host"
    )
    lines.append(
        "delivery order and merged metrics byte-identical serial vs "
        "sharded at every size (asserted inline)"
    )
    write_result("c13_toposcale", lines)

    big = results[-1]
    extra = {"cpus": os.cpu_count(), "shards": SHARDS}
    for m in results:
        extra[f"pps_serial_{m['nodes']}"] = round(m["pps_serial"], 1)
        extra[f"pps_sharded_{m['nodes']}"] = round(m["pps_sharded"], 1)
    extra["windows_1024"] = big["windows"]
    write_bench_json(
        "c13_toposcale",
        wall_s=big["serial_s"],
        events=big["events"],
        extra=extra,
    )


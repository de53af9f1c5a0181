"""Names of everything the benchmark reports.

``BENCHMARK.json`` at the repository root carries the same names with
their units, directions and bounds; ``bench/tests`` holds the two equal.
"""

from __future__ import annotations

#: workload name -> (module, class, what one operation is)
WORKLOADS = {
    "net_echo_small": ("bench.workloads.net", "NetEchoSmall", "64 B message echoed"),
    "net_bulk_sink": ("bench.workloads.net", "NetBulkSink", "KiB sunk"),
    "sim_tcp_lossy": ("bench.workloads.sim", "SimTcpLossy", "KiB delivered"),
    "sim_hdlc_biterr": ("bench.workloads.sim", "SimHdlcBiterr", "256 B frame delivered"),
    "topo_grid_serial": ("bench.workloads.topo", "TopoGridSerial", "packet-hop"),
}

#: Workloads whose every count is a pure function of the seed.
DETERMINISTIC = ("sim_tcp_lossy", "sim_hdlc_biterr", "topo_grid_serial")

#: End-to-end metric -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Span-bearing components: each reports ``<c>.self_us_per_op`` and
#: ``<c>.calls_per_op``.  Their self times are the numerator of
#: ``trace.coverage_share``.
COMPONENTS = (
    "transport.osr",
    "transport.rd",
    "transport.cm",
    "transport.dm",
    "net.codec.encode",
    "net.codec.decode",
    "net.endpoint",
    "net.socket",
    "sim.engine",
    "sim.link",
    "datalink.recovery",
    "datalink.errordetect",
    "datalink.stuffing",
    "datalink.flags",
    "phys.encoding",
    "network.forwarding",
    "topo.channel",
    "topo.region",
    "obs.registry",
)

#: Layer scalars -> unit.
SCALARS = {
    "net.loop.other_us_per_op": "us",
    "net.loop.busy_share": "share",
    "net.loop.lag_p99_ms": "ms",
    "net.endpoint.datagrams_per_op": "count",
    "net.endpoint.wire_bytes_per_payload_byte": "ratio",
    "net.endpoint.decode_errors": "count",
    "net.endpoint.unroutable": "count",
    "transport.rd.retransmits": "count",
    "transport.rd.duplicates_dropped": "count",
    "transport.osr.segments_per_op": "count",
    "datalink.recovery.retransmits": "count",
    "datalink.recovery.corrupt_dropped": "count",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.link.lost": "count",
    "sim.link.corrupted": "count",
    "sim.virtual_completion_s": "s",
    "core.hops_per_op": "count",
    "core.bits.objects_per_op": "count",
    "core.import_ms": "ms",
    "compose.build_ms": "ms",
    "topo.world_build_ms": "ms",
    "topo.fib_ms": "ms",
    "topo.sharded.speedup_x": "x",
    "topo.sharded.windows": "count",
    "topo.sharded.worker_cpu_s": "s",
    "topo.sharded.identical": "bool",
    "trace.coverage_share": "share",
    "trace.overhead_x": "x",
}

#: Counts a deterministic workload must repeat bit for bit at one seed
#: (``python -m bench compare`` asserts it).  They are read from public
#: stats after the first ``CHECK_UNITS`` timed units of the untraced
#: reference phase, so they do not depend on how long the run lasted.
EXACT_COUNTS = (
    "sim.engine.events",
    "sim.link.lost",
    "sim.link.corrupted",
    "sim.virtual_completion_s",
    "transport.rd.retransmits",
    "transport.rd.duplicates_dropped",
    "transport.osr.segments_per_op",
    "datalink.recovery.retransmits",
    "datalink.recovery.corrupt_dropped",
    "core.hops_per_op",
)


def per_layer() -> dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    out: dict[str, str] = {}
    for component in COMPONENTS:
        out[f"{component}.self_us_per_op"] = "us"
        out[f"{component}.calls_per_op"] = "count"
    out.update(SCALARS)
    return out

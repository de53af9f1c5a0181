"""Fleet-scale forwarding: the serial conductor on a 256-node grid.

One timed unit is one ``run_fleet`` call, which is what a caller of the
serial conductor sees: it builds the region world, schedules the flows
and runs the simulator to quiescence.  The world build is therefore part
of every unit (``topo.world_build_ms`` says how much of it).

One operation is one **packet-hop**: a packet forwarded by, or delivered
at, one router.  Flow endpoints are drawn from the seed, so packets per
second would swing with the seed's mean path length (5 % between seeds
even with 512 flows); hops per second does not.
"""

from __future__ import annotations

import resource
import time

from repro.sim import Simulator
from repro.topo import RegionWorld, make_spec, plan_traffic, run_fleet, static_fibs
from repro.topo.spec import bfs_distances

from . import Workload


class TopoGridSerial(Workload):
    """512 one-packet flows across a 16x16 grid, static routing."""

    NODES = 256
    FLOWS = 512
    PACKETS = 1
    #: Packets per flow of the serial-versus-sharded comparison.
    SHARDED_PACKETS = 6

    def prepare(self) -> None:
        self.spec = make_spec("grid", self.NODES, seed=self.seed)
        started = time.perf_counter()
        static_fibs(self.spec)
        self.fib_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        RegionWorld(self.spec, 0, Simulator(), routing="static")
        self.world_build_ms = (time.perf_counter() - started) * 1e3
        plan = plan_traffic(self.spec, self.FLOWS, self.PACKETS)
        self.expected = sorted(
            flow.ident(k) for flow in plan for k in range(flow.packets)
        )
        # Every router on a packet's shortest path handles it once.
        distances = {
            src: bfs_distances(self.spec, src) for src in {flow.src for flow in plan}
        }
        self.OPS_PER_UNIT = sum(
            flow.packets * (distances[flow.src][flow.dst] + 1) for flow in plan
        )
        self.events = 0
        if self._one_unit():
            raise RuntimeError("topo_grid_serial: warm-up packets went missing")

    def _one_unit(self) -> int:
        result = run_fleet(
            self.spec,
            mode="serial",
            routing="static",
            flows=self.FLOWS,
            packets=self.PACKETS,
        )
        self.events += result.events
        delivered = sorted(delivery["ident"] for delivery in result.deliveries)
        return 0 if delivered == self.expected else self.OPS_PER_UNIT

    def _counts(self) -> dict[str, float]:
        return {"sim.engine.events": self.events}

    def layer_extras(self) -> dict[str, float]:
        """The 2-shard forked conductor against the serial one, once.

        A layer metric, not a workload: two workers and a conductor on
        two shared cores swing too much to gate on.
        """
        spec = make_spec("grid", self.NODES, shards=2, seed=self.seed)
        static_fibs(spec)
        runs = {}
        for mode in ("serial", "sharded"):
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            started = time.perf_counter()
            result = run_fleet(
                spec,
                mode=mode,
                routing="static",
                flows=self.FLOWS,
                packets=self.SHARDED_PACKETS,
                jobs=2,
            )
            elapsed = time.perf_counter() - started
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            worker_cpu = (
                after.ru_utime + after.ru_stime - children.ru_utime - children.ru_stime
            )
            runs[mode] = (result, elapsed, worker_cpu)
        serial, sharded = runs["serial"], runs["sharded"]
        return {
            "topo.world_build_ms": self.world_build_ms,
            "topo.fib_ms": self.fib_ms,
            "topo.sharded.speedup_x": serial[1] / sharded[1],
            "topo.sharded.windows": sharded[0].extras.get("windows", 0),
            "topo.sharded.worker_cpu_s": sharded[2],
            "topo.sharded.identical": float(
                serial[0].deliveries == sharded[0].deliveries
            ),
        }

"""Fleet CLI: ``python -m repro.topo``.

Three subcommands:

* ``run`` — generate a topology, simulate traffic serially or sharded,
  and write the canonical artifact set (deliveries, merged spans,
  merged metrics).  CI runs it twice — ``--mode serial`` and
  ``--mode sharded`` — and byte-compares the artifacts.
* ``campaign`` — fleet-scale fault campaigns (link cut, partition)
  through the :mod:`repro.faults` scenario machinery.
* ``flow`` — export a generated topology's oracle FIBs as a flow-spec
  document for ``python -m repro.flow --spec`` (T4/T5).

Examples::

    python -m repro.topo run --kind grid --nodes 64 --shards 2 --mode sharded
    python -m repro.topo run --kind ring --nodes 12 --routing protocol \\
        --duration 40 --out-dir fleet-artifacts
    python -m repro.topo campaign --matrix fleet-smoke --seeds 2
    python -m repro.topo flow --kind fat-tree --nodes 36 --out fleet.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.errors import ConfigurationError
from .campaign import MATRICES
from .runner import run_fleet, write_artifacts
from .spec import KINDS, flow_spec, make_spec


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        choices=KINDS,
        default="grid",
        help="topology generator (default: grid)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=64,
        metavar="N",
        help="approximate node count (default: 64)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default: 0)"
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.topo",
        description="Fleet-scale topology simulation (serial or sharded DES).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a generated fleet")
    _add_spec_arguments(run_p)
    run_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="region count for the partition (default: 1)",
    )
    run_p.add_argument(
        "--mode",
        choices=("serial", "sharded"),
        default="serial",
        help="conductor mode (default: serial)",
    )
    run_p.add_argument(
        "--routing",
        choices=("static", "protocol"),
        default="static",
        help="static oracle FIBs or live hello+LSP convergence",
    )
    run_p.add_argument(
        "--flows", type=int, default=8, help="traffic flows (default: 8)"
    )
    run_p.add_argument(
        "--packets",
        type=int,
        default=10,
        help="packets per flow (default: 10)",
    )
    run_p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="virtual-second horizon (default: run to quiescence; "
        "required for --routing protocol)",
    )
    run_p.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write deliveries.jsonl, spans*.jsonl, metrics.json here",
    )
    run_p.add_argument(
        "--json",
        action="store_true",
        help="print the run summary as JSON instead of text",
    )

    camp_p = sub.add_parser("campaign", help="fleet fault campaigns")
    camp_p.add_argument(
        "--matrix",
        choices=sorted(MATRICES),
        default="fleet-smoke",
        help="fleet scenario matrix (default: fleet-smoke)",
    )
    camp_p.add_argument(
        "--seeds",
        type=int,
        default=2,
        metavar="N",
        help="trials per scenario, seeds 0..N-1 (default: 2)",
    )
    camp_p.add_argument(
        "--out", metavar="FILE.json", help="write the JSON report here"
    )

    flow_p = sub.add_parser("flow", help="export a flow-spec document")
    _add_spec_arguments(flow_p)
    flow_p.add_argument(
        "--ttl", type=int, default=32, help="spec TTL field (default: 32)"
    )
    flow_p.add_argument(
        "--out", metavar="FILE.json", help="write the spec here (default: stdout)"
    )

    args = parser.parse_args(argv)
    if args.command == "campaign" and args.seeds < 1:
        camp_p.error("--seeds must be >= 1")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        return _cmd_flow(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    spec = make_spec(args.kind, args.nodes, shards=args.shards, seed=args.seed)
    result = run_fleet(
        spec,
        mode=args.mode,
        routing=args.routing,
        flows=args.flows,
        packets=args.packets,
        duration=args.duration,
    )
    if args.out_dir:
        write_artifacts(result, args.out_dir)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(
            f"{summary['spec']}: {summary['nodes']} nodes / "
            f"{summary['edges']} edges, {summary['shards']} shard(s), "
            f"{summary['mode']}/{summary['routing']}"
        )
        print(
            f"  delivered {summary['delivered']} packets over "
            f"{summary['events']} events"
            + (
                f" in {result.extras['windows']} windows"
                if "windows" in result.extras
                else ""
            )
        )
        if summary["converged"] is not None:
            print(f"  converged: {summary['converged']}")
        if args.out_dir:
            print(f"  artifacts: {args.out_dir}")
    if result.converged is False:
        return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    scenarios = MATRICES[args.matrix]()
    seeds = list(range(args.seeds))
    results = [s.run(seeds) for s in scenarios]
    report = {
        "matrix": args.matrix,
        "seeds": seeds,
        "ok": all(r.ok for r in results),
        "scenarios": [r.as_dict() for r in results],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=1, sort_keys=True)
            fp.write("\n")
    for result in results:
        status = "green" if result.ok else "RED"
        print(f"  {result.name:<32} {status} ({len(result.trials)} trials)")
        for trial in result.trials:
            for violation in trial.violations:
                print(
                    f"    seed {trial.seed}: {violation.monitor}: "
                    f"{violation.detail}"
                )
    print("resilient" if report["ok"] else "INVARIANT VIOLATIONS")
    return 0 if report["ok"] else 1


def _cmd_flow(args: argparse.Namespace) -> int:
    spec = make_spec(args.kind, args.nodes, seed=args.seed)
    document = flow_spec(spec, ttl=args.ttl)
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"wrote {document['name']} flow spec to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

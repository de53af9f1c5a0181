"""Campaign CLI: ``python -m repro.faults``.

Runs a named scenario matrix over N seeds and emits a JSON resilience
report.  Exit status is 0 only when every invariant monitor stayed
green in every trial — CI uses this as the fault-scenario smoke gate.

Examples::

    python -m repro.faults --matrix default --seeds 5
    python -m repro.faults --matrix smoke --seeds 1 --out resilience.json
    python -m repro.faults --scenario tcp-drop-dup --seeds 3
    python -m repro.faults --list
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..core.errors import ConfigurationError
from ..obs import FlightRecorder, MetricsRegistry
from .scenarios import MATRICES, ScenarioResult, build_matrix


def run_campaign(
    matrix: str,
    seeds: list[int],
    only: list[str] | None = None,
    recorder_dir: str | None = None,
) -> dict:
    """Run the matrix; returns the JSON-serializable resilience report.

    Trials run in scenario/seed order and their metric snapshots are
    merged into the report's ``metrics`` aggregate in that same order,
    so the report — including its merged histogram snapshots, whose
    integer log-buckets merge exactly — is a pure function of the
    matrix and seeds.  ``recorder_dir`` arms a per-trial flight
    recorder: red trials leave a post-mortem bundle under
    ``recorder_dir/<scenario>-seed<seed>/`` (green trials leave
    nothing).
    """
    scenarios = build_matrix(matrix)
    if only:
        names = {s.name for s in scenarios}
        unknown = [n for n in only if n not in names]
        if unknown:
            raise ConfigurationError(
                f"unknown scenario(s) {unknown}; matrix {matrix!r} has: "
                f"{sorted(names)}"
            )
        scenarios = [s for s in scenarios if s.name in only]

    registry = MetricsRegistry()
    results: list[ScenarioResult] = []
    for scenario in scenarios:
        trials = []
        for seed in seeds:
            recorder = None
            if recorder_dir is not None:
                recorder = FlightRecorder(
                    directory=Path(recorder_dir) / f"{scenario.name}-seed{seed}"
                )
            trial, snapshot = scenario.run_trial_with_metrics(
                seed, recorder=recorder
            )
            trials.append(trial)
            registry.merge_snapshot(snapshot)
        results.append(
            ScenarioResult(
                name=scenario.name, profile=scenario.profile, trials=trials
            )
        )
    merged = registry.snapshot()
    counters = merged["counters"]
    return {
        "matrix": matrix,
        "seeds": seeds,
        "ok": all(r.ok for r in results),
        "scenarios": [r.as_dict() for r in results],
        "metrics": {
            "faults_injected": int(
                sum(
                    value
                    for name, value in counters.items()
                    if name.endswith("/faults_injected")
                )
            ),
            "counters": len(counters),
            "histograms": len(registry.histograms),
            # The campaign-wide latency distributions (ARQ RTT,
            # handshake time, queue residency…), merged exactly from
            # per-trial snapshots in scenario/seed order.
            "hists": merged["hists"],
        },
    }


def _print_summary(report: dict) -> None:
    print(
        f"fault campaign: matrix={report['matrix']} "
        f"seeds={report['seeds']}"
    )
    for scenario in report["scenarios"]:
        status = "green" if scenario["ok"] else "RED"
        injected = sum(
            t["info"].get("faults_injected", 0) for t in scenario["trials"]
        )
        print(
            f"  {scenario['name']:<24} [{scenario['profile']:<8}] "
            f"{status:>5}  ({len(scenario['trials'])} trials, "
            f"{injected} faults injected)"
        )
        for trial in scenario["trials"]:
            for violation in trial["violations"]:
                print(
                    f"    seed {trial['seed']}: {violation['monitor']}: "
                    f"{violation['detail']}"
                )
            if "bundle" in trial["info"]:
                print(
                    f"    seed {trial['seed']}: flight bundle: "
                    f"{trial['info']['bundle']}"
                )
    print("resilient" if report["ok"] else "INVARIANT VIOLATIONS")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run fault-injection scenario campaigns.",
    )
    parser.add_argument(
        "--matrix",
        choices=sorted(MATRICES),
        default="default",
        help="scenario matrix to run (default: default)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=5,
        metavar="N",
        help="number of trials per scenario, seeds base..base+N-1",
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help="first trial seed (default 0)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only the named scenario (repeatable)",
    )
    parser.add_argument(
        "--flight-recorder",
        metavar="DIR",
        help="arm a per-trial flight recorder; red trials dump a "
        "post-mortem bundle (spans + metrics + trigger) under DIR",
    )
    parser.add_argument(
        "--out",
        metavar="FILE.json",
        help="write the JSON resilience report here",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list matrices and scenarios, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(MATRICES):
            print(f"matrix {name}:")
            for scenario in build_matrix(name):
                print(f"  {scenario.name:<24} [{scenario.profile}]")
        return 0
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    seeds = list(range(args.base_seed, args.base_seed + args.seeds))
    try:
        report = run_campaign(
            args.matrix,
            seeds,
            only=args.scenario,
            recorder_dir=args.flight_recorder,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=1, sort_keys=True)
            fp.write("\n")
    _print_summary(report)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

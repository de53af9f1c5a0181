"""Command line of the benchmark.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is the
driver's contract: the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` / ``--trace`` every workload runs untraced and then
traced, every metric is printed by name with its unit, and ``--out``
collects the runs in one file for ``python3 -m bench compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .compare import compare
from .metrics import END_TO_END, WORKLOADS, per_layer

ROOT = Path(__file__).resolve().parent.parent
#: ``prepare`` runs this many times a run, each in a fresh interpreter;
#: ``setup_s`` is the median.
SETUPS = 5
#: Seconds a child may outlive its ``--seconds`` before it is killed and
#: the run reported as failed.
CHILD_GRACE_S = 60.0


def spawn(workload: str, seed: int, seconds: float, mode: str, spans: str | None) -> dict:
    """Run one child to completion and return its result object."""
    # A fixed hash seed: string-keyed dicts collide the same way in every
    # child, which on this code is worth 3 % of run-to-run spread.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-m", "bench.child",
        workload, str(seed), str(seconds), mode, repr(time.time()),
    ]  # fmt: skip
    if spans:
        command.append(spans)
    try:
        done = subprocess.run(
            command,
            env=env,
            stdout=subprocess.PIPE,
            timeout=seconds + CHILD_GRACE_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the child.
        return {"error": f"{workload}: no result after {seconds + CHILD_GRACE_S:.0f} s"}
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"{workload}: child exited with code {done.returncode}"}
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int, spans: str | None) -> dict:
    """One run as the contract defines it; returns the result object."""
    expected = per_layer() if trace else END_TO_END
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            child = spawn(workload, seed, 0.0, "setup", None)
            if "error" in child:
                break  # the measured child below will fail and say why
            setups.append(child["setup_s"])
    child = spawn(workload, seed, seconds, "layers" if trace else "e2e", spans)
    if "error" in child:
        print(child["error"], file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = child["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups + [child["setup_s"]])
    return {
        "correct": child["failed"] == 0 and set(metrics) == set(expected),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in expected.items()
            if name in metrics
        },
    }


def stamp(seed: int, seconds: float) -> dict[str, Any]:
    """Where and how the runs of one ``--out`` file were made."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit or "unknown",
        "interface": "loopback (127.0.0.1); one single-threaded process",
        "clocks": "net workloads: wall = host time; sim/topo workloads: host "
        "time, with virtual time reported as sim.virtual_completion_s",
        "tier": "metrics",
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1], argv[2], ROOT / "BENCHMARK.json")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="write every run, and the first spans, here")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [0] * args.runs + [1] if args.trace is None else [args.trace]
    runs = []
    for workload in workloads:
        for trace in traces:
            spans = f"{args.out}.{workload}.spans.jsonl" if args.out and trace else None
            result = run_once(workload, args.seed, args.seconds, trace, spans)
            runs.append(dict(result, workload=workload, trace=trace, seed=args.seed))
    if args.out:
        Path(args.out).write_text(
            json.dumps({"stamp": stamp(args.seed, args.seconds), "runs": runs}, indent=1)
            + "\n"
        )
    correct = all(run["correct"] for run in runs)
    if len(runs) == 1:
        print(json.dumps(result))
    else:
        for run in runs:
            print(f"\n{run['workload']}  trace={run['trace']}  seed={run['seed']}  "
                  f"attempted={run['attempted']}  failed={run['failed']}  "
                  f"(operation = {WORKLOADS[run['workload']][2]})")  # fmt: skip
            for name, metric in run["metrics"].items():
                print(f"  {name:45s} {metric['value']:16.6f} {metric['unit']}")
        print(json.dumps({"correct": correct, "runs": len(runs)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

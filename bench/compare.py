"""``python3 -m bench compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric), judged by the bound that
``BENCHMARK.json`` fixes for the metric:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's own runs spread (first to third
  quartile, as a share of the median) wider than the bound, and B's runs
  are not all better than all of A's: the files cannot tell;
* ``ok`` — otherwise.

Then the exact counts of the deterministic workloads, which must be
bit-identical wherever both files traced the same seed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .metrics import DETERMINISTIC, EXACT_COUNTS


def _values(runs: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload
        and run["trace"] == trace
        and metric in run["metrics"]
    ]


def _spread(values: list[float]) -> float:
    """First-to-third quartile distance as a share of the median."""
    if len(values) < 4:
        return 0.0  # too few runs to have quartiles
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(path_a: str, path_b: str, manifest_path: Path) -> int:
    """Print the verdict table; 1 if anything regressed, failed or differs."""
    manifest = json.loads(manifest_path.read_text())
    file_a, file_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    runs_a, runs_b = file_a["runs"], file_b["runs"]
    bad = 0
    print(f"{'workload':18s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")  # fmt: skip
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            a = _values(runs_a, workload, 0, metric["name"])
            b = _values(runs_b, workload, 0, metric["name"])
            if not a or not b:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse_by = sign * (median_b - median_a) / median_a
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if max(_spread(a), _spread(b)) > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            print(f"{workload:18s} {metric['name']:12s} {median_a:12.4f} {median_b:12.4f} "
                  f"{worse_by:+9.1%} {metric['bound']:6.0%}  {verdict}")  # fmt: skip

    for label, runs in (("A", runs_a), ("B", runs_b)):
        failed = sum(run["failed"] for run in runs)
        if failed or not all(run["correct"] for run in runs):
            print(f"{label}: {failed} operations failed or a run was not correct")
            bad += 1

    if file_a["stamp"]["seed"] == file_b["stamp"]["seed"]:
        for workload in DETERMINISTIC:
            for name in EXACT_COUNTS:
                a = _values(runs_a, workload, 1, name)
                b = _values(runs_b, workload, 1, name)
                if a and b and set(a) != set(b):
                    print(f"{workload}: {name} differs at one seed: {a} != {b}")
                    bad += 1
        print("exact counts of the deterministic workloads: compared")
    else:
        print("exact counts: seeds differ, not compared")
    return 1 if bad else 0

"""Smoke tests of the benchmark itself.

Run explicitly with ``PYTHONPATH=src python -m pytest bench/tests``; they
are not part of the tier-1 ``testpaths``.  Every workload runs at about
1/50 of its benchmark length, in child interpreters, the way the driver
runs it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache

import pytest

from bench.__main__ import ROOT, main, spawn
from bench.compare import compare
from bench.metrics import DETERMINISTIC, END_TO_END, EXACT_COUNTS, WORKLOADS, per_layer
from bench.tracer import Tracer

SECONDS = 0.2
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_names_what_the_code_reports():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == per_layer()
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert MANIFEST["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_contract_line_has_every_metric_and_no_other(workload, trace, capsys):
    code = main(
        ["--workload", workload, "--seed", "3", "--seconds", str(SECONDS),
         "--trace", str(trace)]
    )  # fmt: skip
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = per_layer() if trace else END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@lru_cache(maxsize=None)
def layers_run(workload: str, attempt: int, spans: str | None = None) -> dict:
    return spawn(workload, 3, SECONDS, "layers", spans)


@pytest.mark.parametrize("workload", DETERMINISTIC)
def test_exact_counts_repeat_at_one_seed(workload):
    first, second = (layers_run(workload, n)["metrics"] for n in (1, 2))
    assert {n: first[n] for n in EXACT_COUNTS} == {n: second[n] for n in EXACT_COUNTS}


@pytest.mark.parametrize("workload", ["net_echo_small", "sim_hdlc_biterr"])
def test_kept_spans_nest_and_self_times_are_not_negative(workload, tmp_path):
    path = tmp_path / "spans.jsonl"
    result = layers_run(workload, 0, str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert result["spans"] == len(spans) > 0
    children: dict[int, int] = {}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
            children[span["parent"]] = (
                children.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
            )
    for span in spans:
        assert span["end_ns"] - span["start_ns"] >= children.get(span["id"], 0)
    assert all(v >= 0 for n, v in result["metrics"].items() if "self_us" in n)


def test_tracer_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.push("outer")
    tracer.push("inner")
    tracer.pop()
    tracer.push("inner")
    tracer.pop()
    tracer.pop()
    (outer, first, second) = tracer.spans
    inner = (first[2] - first[1]) + (second[2] - second[1])
    assert tracer.self_ns == {"inner": inner, "outer": outer[2] - outer[1] - inner}
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.root_ns == outer[2] - outer[1]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_two_benchmark_processes_run_side_by_side():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    command = [
        sys.executable, "-m", "bench", "--workload", "net_echo_small",
        "--seed", "3", "--seconds", "1", "--trace", "0",
    ]  # fmt: skip
    both = [
        subprocess.Popen(command, env=env, stdout=subprocess.PIPE) for _ in range(2)
    ]
    for process in both:
        out, _ = process.communicate(timeout=120)
        result = json.loads(out.decode().strip().splitlines()[-1])
        assert process.returncode == 0 and result["correct"] and not result["failed"]


def _out_file(tmp_path, name, values, counts=7.0):
    runs = [
        {
            "workload": "sim_tcp_lossy", "trace": 0, "seed": 1,
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        }
        for value in values
    ]  # fmt: skip
    runs.append(
        {
            "workload": "sim_tcp_lossy", "trace": 1, "seed": 1,
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"sim.link.lost": {"value": counts, "unit": "count"}},
        }
    )  # fmt: skip
    path = tmp_path / name
    path.write_text(json.dumps({"stamp": {"seed": 1}, "runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    manifest = ROOT / "BENCHMARK.json"
    steady = _out_file(tmp_path, "a.json", [100, 101, 99, 100, 102])
    assert compare(steady, _out_file(tmp_path, "b.json", [97, 98, 96, 97, 99]), manifest) == 0
    assert " ok" in capsys.readouterr().out
    assert compare(steady, _out_file(tmp_path, "c.json", [80, 81, 79, 80, 82]), manifest) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare(steady, _out_file(tmp_path, "d.json", [60, 130, 95, 70, 120]), manifest) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare(steady, _out_file(tmp_path, "e.json", [100] * 5, counts=8.0), manifest) == 1
    assert "sim.link.lost differs" in capsys.readouterr().out

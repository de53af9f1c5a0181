"""The ``python -m repro.flow`` entry point."""

import json

import pytest

from repro.flow.__main__ import main


def test_default_run_proves_all_examples(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "all properties hold" in out
    for name in ("mesh6", "star9", "ring8", "grid4x4"):
        assert f"{name:<12} PROVED" in out


def test_single_topology_selection(capsys):
    assert main(["--topology", "mesh6"]) == 0
    out = capsys.readouterr().out
    assert "mesh6" in out and "star9" not in out


def test_violating_spec_exits_one(fixtures, capsys):
    assert main(["--spec", str(fixtures / "loop.json")]) == 1
    out = capsys.readouterr().out
    assert "REFUTED" in out and "[loop-freedom]" in out


def test_json_format(fixtures, capsys):
    assert main(["--format", "json", "--spec", str(fixtures / "escape.json")]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    assert data["specs"]["escape"]["violations"][0]["property"] == "no-escape"


def test_out_writes_the_report(tmp_path, capsys):
    out_file = tmp_path / "flow.json"
    assert main(["--format", "json", "--topology", "ring8", "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data["passed"] is True


def test_list_names_the_examples(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("mesh6", "star9", "ring8", "grid4"):
        assert name in out


def test_unknown_topology_is_usage_error(capsys):
    assert main(["--topology", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_spec_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--spec", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def line4(ttl: int) -> dict:
    """Zone {1, 2, 4} on a line: 2 <-> 4 traffic must cross outsider 3."""
    return {
        "name": "line4",
        "nodes": [1, 2, 3, 4],
        "edges": [[1, 2], [2, 3], [3, 4]],
        "fibs": {
            "1": {"2": 2, "3": 2, "4": 2},
            "2": {"1": 1, "3": 3, "4": 3},
            "3": {"1": 2, "2": 2, "4": 4},
            "4": {"1": 3, "2": 3, "3": 3},
        },
        "zones": [{"name": "z", "nodes": [1, 2, 4]}],
        "ttl": ttl,
    }


def test_escape_is_refuted_at_a_valid_ttl(tmp_path, capsys):
    spec = tmp_path / "line4.json"
    spec.write_text(json.dumps(line4(32)))
    assert main(["--spec", str(spec)]) == 1
    assert "node 3: [no-escape]" in capsys.readouterr().out


@pytest.mark.parametrize("ttl", [300, -1])
def test_out_of_range_ttl_is_usage_error_not_proof(tmp_path, capsys, ttl):
    spec = tmp_path / "line4.json"
    spec.write_text(json.dumps(line4(ttl)))
    assert main(["--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert "PROVED" not in captured.out
    assert "ttl" in captured.err

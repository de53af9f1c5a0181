"""The ``python -m repro.flow`` entry point."""

import json

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

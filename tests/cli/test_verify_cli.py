"""Tests for the ``python -m repro.verify`` CLI."""

import json

import pytest

from repro.verify.__main__ import main, parse_rule

def run(tmp_path, name, *argv):
    out = tmp_path / f"{name}.json"
    status = main([*argv, "--out", str(out)])
    return status, out.read_bytes()


class TestVerifyCli:
    def test_report_shape(self, tmp_path):
        status, raw = run(tmp_path, "shape", "--max-len", "5", "--rule", "hdlc")
        report = json.loads(raw)
        assert status == 0
        assert report["proved"] is True
        assert report["max_len"] == 5
        assert len(report["libraries"]) == 1
        (library,) = report["libraries"].values()
        names = [result["lemma"] for result in library["results"]]
        assert names == sorted(names)

    def test_invalid_rule_fails(self, tmp_path):
        # flag 0110 / trigger 11 / stuff 0 is a known-bad rule: the
        # stuffed bit can complete a flag with following data.
        status, raw = run(
            tmp_path, "broken", "--max-len", "6", "--rule", "0110:11:0"
        )
        report = json.loads(raw)
        assert status == 1
        assert report["proved"] is False
        failed = [
            result
            for library in report["libraries"].values()
            for result in library["results"]
            if not result["proved"]
        ]
        assert failed and all(
            result["counterexample"] for result in failed
        )


class TestParseRule:
    def test_named_rules(self):
        assert parse_rule("hdlc").label().startswith("flag=01111110")
        assert parse_rule("low-overhead").label().startswith("flag=00000010")

    def test_triple(self):
        rule = parse_rule("0110:11:0")
        assert rule.label() == "flag=0110 trigger=11 stuff=0"

    def test_garbage_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_rule("not-a-rule")

"""Campaigns with an armed flight recorder: red trials leave a
post-mortem bundle (spans + metrics + trigger), green trials leave
nothing."""

import json

import pytest

from repro.faults.__main__ import run_campaign
from repro.obs import load_jsonl_with_meta
from repro.obs.recorder import METRICS_FILE, SPANS_FILE, TRIGGER_FILE


class TestRedTrialsDump:
    def test_negative_control_leaves_a_bundle(self, tmp_path):
        report = run_campaign(
            "negative", [0], recorder_dir=str(tmp_path)
        )
        assert not report["ok"], "the negative control must turn red"

        bundle = tmp_path / "wireless-drop-noarq-seed0"
        assert bundle.is_dir()
        spans, _meta = load_jsonl_with_meta(bundle / SPANS_FILE)
        assert spans, "the trial's span trace must be captured"
        metrics = json.loads((bundle / METRICS_FILE).read_text())
        assert metrics["final"]["counters"]
        trigger = json.loads((bundle / TRIGGER_FILE).read_text())
        assert trigger["scenario"] == "wireless-drop-noarq"
        assert trigger["seed"] == 0
        assert trigger["violations"], "the trigger names what went red"

        trial = report["scenarios"][0]["trials"][0]
        assert trial["info"]["bundle"] == str(bundle)

    def test_every_red_seed_gets_its_own_bundle(self, tmp_path):
        report = run_campaign("negative", [0, 1], recorder_dir=str(tmp_path))
        trials = report["scenarios"][0]["trials"]
        for trial in trials:
            assert (tmp_path / f"wireless-drop-noarq-seed{trial['seed']}").is_dir()
            assert "bundle" in trial["info"]

    def test_bundle_analyzes_cleanly(self, tmp_path):
        """The acceptance loop: dump a bundle, run the analyzer on it."""
        from repro.obs.analyze import render_report

        run_campaign("negative", [0], recorder_dir=str(tmp_path))
        spans, _ = load_jsonl_with_meta(
            tmp_path / "wireless-drop-noarq-seed0" / SPANS_FILE
        )
        text = render_report(spans, clock="virtual")
        assert "critical path" in text
        assert "per-sublayer breakdown" in text


class TestGreenTrialsDoNot:
    def test_green_scenario_leaves_no_bundle(self, tmp_path):
        report = run_campaign(
            "smoke",
            [0],
            only=["hdlc-drop-dup-corrupt"],
            recorder_dir=str(tmp_path),
        )
        assert report["ok"]
        assert list(tmp_path.iterdir()) == []
        trial = report["scenarios"][0]["trials"][0]
        assert "bundle" not in trial["info"]

    def test_recorder_off_changes_nothing(self, tmp_path):
        with_rec = run_campaign(
            "smoke", [0], only=["hdlc-drop-dup-corrupt"], recorder_dir=str(tmp_path)
        )
        without = run_campaign("smoke", [0], only=["hdlc-drop-dup-corrupt"])
        assert json.dumps(with_rec, sort_keys=True) == json.dumps(
            without, sort_keys=True
        )


class TestMatrixWiring:
    def test_negative_matrix_is_listed(self):
        from repro.faults.scenarios import MATRICES, build_matrix

        assert "negative" in MATRICES
        names = [s.name for s in build_matrix("negative")]
        assert names == ["wireless-drop-noarq"]

    def test_negative_control_not_in_green_matrices(self):
        from repro.faults.scenarios import build_matrix

        for matrix in ("default", "smoke"):
            assert "wireless-drop-noarq" not in [
                s.name for s in build_matrix(matrix)
            ]

"""Resilience scenario recipes and the campaign CLI.

Each smoke-sized recipe runs one seeded trial green; the
``wireless(arq=False)`` recipe is the negative control proving the
monitors bite.  Trials are deterministic in the seed, so these are exact
assertions, not flake-tolerant ones.
"""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.__main__ import main, run_campaign
from repro.faults.scenarios import (
    build_matrix,
    hdlc,
    quic,
    routing,
    smoke_matrix,
    tcp,
    wireless,
)


class TestScenariosGreen:
    """One seeded trial per smoke scenario must hold every invariant."""

    def check(self, scenario, seed=0):
        trial = scenario.run_trial(seed)
        assert trial.ok, f"violations: {[v.as_dict() for v in trial.violations]}"
        return trial

    def test_hdlc(self):
        trial = self.check(hdlc(messages=6, timeout=120.0))
        assert trial.info["faults_injected"] > 0

    def test_wireless(self):
        trial = self.check(wireless(messages=6, timeout=90.0))
        assert trial.info["faults_injected"] > 0

    def test_tcp(self):
        trial = self.check(tcp(nbytes=6_000, timeout=180.0))
        assert trial.info["faults_injected"] > 0

    def test_quic(self):
        trial = self.check(quic(nbytes=5_000, streams=1, timeout=180.0))
        assert trial.info["faults_injected"] > 0

    def test_routing(self):
        self.check(routing())


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        scenario = hdlc(messages=6, timeout=120.0)
        a = scenario.run_trial(3)
        b = hdlc(messages=6, timeout=120.0).run_trial(3)
        # A record holds no per-trial state: rerunning it replays too.
        c = scenario.run_trial(3)
        assert a.as_dict() == b.as_dict() == c.as_dict()


class TestNegativeControl:
    def test_no_arq_wireless_loses_data(self):
        """Removing recovery under the same drop fault must turn the
        no-data-loss monitor red — proof the monitors actually bite."""
        scenario = wireless(messages=6, arq=False, timeout=90.0)
        result = scenario.run(seeds=[0, 1, 2])
        assert not result.ok
        monitors_fired = {
            v.monitor for t in result.trials for v in t.violations
        }
        assert "no-data-loss" in monitors_fired


class TestMatrices:
    def test_smoke_matrix_covers_all_profiles(self):
        assert {s.profile for s in smoke_matrix()} == {
            "hdlc", "wireless", "tcp", "quic", "routing",
        }

    def test_unknown_matrix(self):
        with pytest.raises(ConfigurationError, match="unknown scenario matrix"):
            build_matrix("nope")

    def test_unknown_scenario_filter(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_campaign("smoke", seeds=[0], only=["not-a-scenario"])

    def test_metrics_aggregate_present(self):
        report = run_campaign("smoke", [0])
        assert report["ok"]
        assert report["metrics"]["faults_injected"] > 0
        assert report["metrics"]["counters"] > 0


class TestCli:
    def test_smoke_campaign_green_report(self, tmp_path, capsys):
        out = tmp_path / "resilience.json"
        code = main(
            ["--matrix", "smoke", "--seeds", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["matrix"] == "smoke"
        assert {s["name"] for s in report["scenarios"]} == {
            "hdlc-drop-dup-corrupt",
            "wireless-drop-arq",
            "tcp-drop-dup",
            "quic-drop",
            "routing-blackhole",
        }
        assert "resilient" in capsys.readouterr().out

    def test_scenario_filter(self, capsys):
        code = main(
            ["--matrix", "smoke", "--seeds", "1", "--scenario",
             "routing-blackhole"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "routing-blackhole" in output
        assert "hdlc" not in output

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(
            ["--matrix", "smoke", "--seeds", "1", "--scenario", "bogus"]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "matrix smoke:" in output
        assert "tcp-drop-dup" in output

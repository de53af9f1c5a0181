"""Property checks: each violating fixture refutes exactly its property."""

import pytest

from repro.flow.properties import analyze, analyze_all
from repro.flow.spec import FlowSpec


def load(fixtures, name: str) -> FlowSpec:
    return FlowSpec.from_file(fixtures / f"{name}.json")


class TestFixtureCorpus:
    def test_clean_fixture_proves_everything(self, fixtures):
        report = analyze(load(fixtures, "clean"))
        assert report.passed
        assert report.violations == []
        assert all(r.passed for r in report.results)

    def test_escape_fixture_refutes_only_no_escape(self, fixtures):
        report = analyze(load(fixtures, "escape"))
        assert not report.passed
        assert {v.property for v in report.violations} == {"no-escape"}
        [violation] = report.violations
        assert violation.node == 3  # zone traffic transits the outsider
        assert violation.witness  # symbolic evidence attached

    def test_loop_fixture_refutes_only_loop_freedom(self, fixtures):
        report = analyze(load(fixtures, "loop"))
        assert not report.passed
        assert {v.property for v in report.violations} == {"loop-freedom"}
        [violation] = report.violations
        assert "1 -> 2" in violation.message
        assert violation.witness["destinations"] == [[3, 3]]

    def test_blackhole_fixture_refutes_only_blackhole_freedom(self, fixtures):
        report = analyze(load(fixtures, "blackhole"))
        assert not report.passed
        assert {v.property for v in report.violations} == {"blackhole-freedom"}
        # node 2 has no route to 3; node 3's hop for 1 resolves nowhere
        assert {v.node for v in report.violations} == {2, 3}

    def test_overlap_fixture_refutes_only_isolation(self, fixtures):
        report = analyze(load(fixtures, "overlap"))
        assert not report.passed
        assert {v.property for v in report.violations} == {"isolation"}
        [violation] = report.violations
        assert violation.node is None  # spec-wide: overlapping spaces
        assert "overlapping address space" in violation.message

    def test_per_property_results_carry_litmus_labels(self, fixtures):
        report = analyze(load(fixtures, "clean"))
        labels = {r.name: r.metrics["litmus"] for r in report.results}
        assert labels == {
            "no-escape": "T4",
            "blackhole-freedom": "T4",
            "loop-freedom": "T4",
            "isolation": "T5",
        }


class TestTenantMeet:
    def test_intra_tenant_traffic_at_foreign_node_is_flagged(self):
        # alpha's 1<->3 traffic must transit node 2, which beta owns.
        spec = FlowSpec.from_dict(
            {
                "name": "meet",
                "nodes": [1, 2, 3],
                "edges": [[1, 2], [2, 3]],
                "fibs": {
                    "1": {"2": 2, "3": 2},
                    "2": {"1": 1, "3": 3},
                    "3": {"1": 2, "2": 2},
                },
                "tenants": [
                    {"name": "alpha", "nodes": [1, 3]},
                    {"name": "beta", "nodes": [2]},
                ],
            }
        )
        report = analyze(spec)
        assert {v.property for v in report.violations} == {"isolation"}
        [violation] = report.violations
        assert violation.node == 2
        assert "alpha" in violation.message and "beta" in violation.message


class TestAnalyzeAll:
    def test_analyze_all_keys_reports_by_spec_name(self, fixtures):
        reports = analyze_all(
            [load(fixtures, "clean"), load(fixtures, "loop")]
        )
        assert list(reports) == ["clean", "loop"]
        assert reports["clean"].passed and not reports["loop"].passed


class TestReportShape:
    def test_as_dict_is_json_canonical(self, fixtures):
        report = analyze(load(fixtures, "escape"))
        data = report.as_dict()
        assert data["spec"] == "escape"
        assert data["passed"] is False
        assert [r["name"] for r in data["results"]] == [
            "no-escape",
            "blackhole-freedom",
            "loop-freedom",
            "isolation",
        ]
        assert data["stats"]["nodes"] == 3

    def test_text_rendering_names_the_property(self, fixtures):
        text = analyze(load(fixtures, "loop")).text()
        assert "[loop-freedom]" in text


@pytest.mark.parametrize("name", ["clean", "escape", "loop", "blackhole", "overlap"])
def test_analysis_is_deterministic(fixtures, name):
    spec = load(fixtures, name)
    assert analyze(spec).as_dict() == analyze(spec).as_dict()

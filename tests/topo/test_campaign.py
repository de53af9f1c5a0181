"""Fleet fault campaigns: no dependence on the region partition, and the
CLI's seed guard."""

import ast
from pathlib import Path

import pytest

from repro.topo import campaign
from repro.topo.__main__ import main


class TestFleetMatrix:
    """Which edges each scenario cuts is pinned byte for byte by the
    fleet-smoke golden in ``tests/cli/test_output_golden.py``."""

    def test_campaign_never_reads_regions(self):
        """The partition is a BFS half computed from the edges, so the
        campaign stays valid when the region partition leaves
        ``FleetSpec``."""
        tree = ast.parse(Path(campaign.__file__).read_text())
        read = {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        }
        assert not read & {"regions", "shards", "region_of", "cross_edges"}


class TestCampaignCli:
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_trials_is_a_usage_error(self, seeds, capsys):
        """A campaign with no trials must not report itself resilient."""
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--seeds", seeds])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--seeds must be >= 1" in captured.err
        assert "resilient" not in captured.out

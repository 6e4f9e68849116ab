"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.runs == 20
        assert args.seed == 2014

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestTreesCommand:
    def test_inventory(self, capsys):
        assert main(["trees"]) == 0
        out = capsys.readouterr().out
        assert "asg-instance-count" in out
        assert "leaves" in out

    def test_dot_export(self, capsys):
        assert main(["trees", "--dot", "asg-wrong-version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "lc_wrong_ami" in out


class TestMineCommand:
    def test_mine_prints_model(self, capsys):
        assert main(["mine", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "discovered model" in out
        assert "new_instance_ready -> rolling_upgrade_completed" in out

    def test_mine_dot(self, capsys):
        assert main(["mine", "--runs", "2", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestCampaignCommand:
    def test_small_campaign_with_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["campaign", "--runs", "1", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Headline results" in out
        assert "Figure 6" in out and "Figure 7" in out
        payload = json.loads(path.read_text())
        assert payload["recall"] == 1.0
        assert set(payload["per_fault"]) == {
            "AMI_CHANGED", "KEYPAIR_WRONG", "SG_WRONG", "INSTANCE_TYPE_CHANGED",
            "AMI_UNAVAILABLE", "KEYPAIR_UNAVAILABLE", "SG_UNAVAILABLE", "ELB_UNAVAILABLE",
        }


class TestDemoCommand:
    def test_demo_runs_clean_and_faulty(self, capsys):
        assert main(["demo", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "clean upgrade: completed" in out
        assert "faulty upgrade (wrong AMI)" in out
        assert "Root causes" in out


class TestRecoverCommand:
    def test_escalation_names_its_reason(self, capsys):
        """Exit code 2 = ESCALATED; the one-word reason rides the headline."""
        assert main(["recover", "--fault", "AMI_UNAVAILABLE"]) == 2
        assert "recovery: ESCALATED (nothing-automatable)" in capsys.readouterr().out

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
        assert "lc_corrupted -> wrong_ami" in out


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

    @pytest.fixture
    def first_run_crashes(self, monkeypatch):
        from repro.evaluation import parallel

        real = parallel.run_single

        def crash_first(spec):
            if spec.run_id == "ami_changed-01":
                raise RuntimeError("boom")
            return real(spec)

        monkeypatch.setattr(parallel, "run_single", crash_first)

    def test_crashed_run_is_named_on_stderr(self, first_run_crashes, capsys):
        """A run that raises is left out of the metrics, and the warning
        names it with the last line of its traceback."""
        assert main(["campaign", "--runs", "1"]) == 0
        err = capsys.readouterr().err
        assert "WARNING: 1 run(s) crashed and were excluded from metrics:" in err
        assert "  ami_changed-01: RuntimeError: boom" in err

    def test_crashed_run_reads_crashed_in_the_progress_line(self, first_run_crashes, capsys):
        assert main(["campaign", "--runs", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "[1/8] ami_changed-01: CRASHED" in out
        assert "[2/8] keypair_wrong-01: detected" in out


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


class TestInputValidation:
    """Bad counts and unknown names are usage errors (exit 2, no
    traceback), found before any campaign runs."""

    @pytest.mark.parametrize(
        "argv, says",
        [
            (["campaign", "--runs", "0"], "must be at least 1"),
            (["demo", "--cluster", "0"], "must be at least 1"),
            (["trees", "--dot", "nope"], "known: asg-instance-count"),
            (["chaos-sweep", "--levels", "none,bogus"], "known: none, mild, moderate, severe"),
            (["recover", "--inject-at", "-5"], "must be a finite number >= 0"),
            (["recover", "--inject-at", "nan"], "must be a finite number >= 0"),
            (["recover", "--inject-at", "inf"], "must be a finite number >= 0"),
            (["recover", "--inject-at", "soon"], "invalid non_negative_seconds value"),
            (["trace-export", "--max-spans", "-3"], "must be at least 1"),
            (["trace-export", "--max-spans", "0"], "must be at least 1"),
        ],
        ids=[
            "runs-0", "cluster-0", "unknown-tree", "unknown-level", "inject-at-negative",
            "inject-at-nan", "inject-at-inf", "inject-at-word", "max-spans-negative", "max-spans-0",
        ],
    )
    def test_usage_error(self, argv, says, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and says in err
        assert "Traceback" not in err

    def test_a_bad_level_runs_no_campaign(self, monkeypatch, capsys):
        from repro.evaluation.campaign import Campaign

        ran = []
        monkeypatch.setattr(Campaign, "run", lambda self, **kwargs: ran.append(self))
        with pytest.raises(SystemExit):
            main(["chaos-sweep", "--runs", "1", "--levels", "none,bogus"])
        assert ran == []

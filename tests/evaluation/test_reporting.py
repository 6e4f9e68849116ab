"""Tests for the Markdown campaign report generator."""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, RunOutcome, RunSpec
from repro.evaluation.metrics import compute_metrics
from repro.evaluation.reporting import render_markdown


@pytest.fixture(scope="module")
def small_campaign():
    campaign = Campaign(CampaignConfig(runs_per_fault=2, large_cluster_runs=0, seed=77))
    campaign.run()
    return campaign.outcomes, compute_metrics(campaign.outcomes)


class TestReport:
    def test_report_has_all_sections(self, small_campaign):
        outcomes, metrics = small_campaign
        report = render_markdown(outcomes, metrics)
        for heading in (
            "# POD-Diagnosis campaign report",
            "## Headline (Table I)",
            "## Figure 6",
            "## Figure 7",
            "## Failure modes",
            "## Per-run ledger",
        ):
            assert heading in report

    def test_paper_reference_numbers_included(self, small_campaign):
        outcomes, metrics = small_campaign
        report = render_markdown(outcomes, metrics)
        assert "91.95%" in report
        assert "2.30s" in report

    def test_ledger_has_one_row_per_run(self, small_campaign):
        outcomes, metrics = small_campaign
        report = render_markdown(outcomes, metrics)
        ledger = report.split("## Per-run ledger")[1]
        rows = [l for l in ledger.splitlines() if l.startswith("| ") and "Run" not in l and "---" not in l]
        assert len(rows) == len(outcomes)

    def test_every_fault_type_in_fig7(self, small_campaign):
        outcomes, metrics = small_campaign
        report = render_markdown(outcomes, metrics)
        for fault_type in metrics.per_fault:
            assert fault_type in report

    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "report.md"
        assert main(["campaign", "--runs", "1", "--report", str(path)]) == 0
        text = path.read_text()
        assert "## Per-run ledger" in text
        assert "report written" in capsys.readouterr().out


class TestCrashedRun:
    """A run that crashed reads as crashed: it is no fault-mode statistic
    and its ledger row claims neither a miss nor a wrong diagnosis."""

    @pytest.fixture
    def report(self):
        spec = RunSpec(run_id="ami_changed-01", fault_type="AMI_CHANGED", seed=1,
                       inject_at=50.0, transient=True)
        outcomes = [RunOutcome.failure(spec, "Traceback: boom")]
        return render_markdown(outcomes, compute_metrics(outcomes))

    def test_failure_modes_leave_it_out(self, report):
        assert "- transient-fault runs: 0" in report
        assert "(masked by interference/timing): 0" in report

    def test_ledger_row_says_crashed(self, report):
        assert "| ami_changed-01 | 4 | - | crashed | - | crashed | - |" in report

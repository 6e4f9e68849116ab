"""Tests for the Markdown campaign report generator."""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
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

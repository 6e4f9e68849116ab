"""Shared fixtures for the paper's tables and figures.

The full §V campaign (8 fault types x 20 runs with mixed interference) is
run once per session and shared by every table/figure test, by the
seed-2014 case of the multi-seed contract and by the walk replay, which
reads each run's diagnosis reports (an outcome keeps only their
summaries).
"""

import pathlib

import pytest

from repro.evaluation import campaign as campaign_module
from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    """The paper reproductions are tier-`slow`: tier-1 and `make paper`
    run them, the fast `make check` tier does not."""
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def campaign_run():
    """``(outcomes, reports)`` of the paper's campaign, run serially:
    ``reports[i]`` is run ``i``'s ``testbed.pod.reports``, the
    :class:`~repro.diagnosis.report.DiagnosisReport` records themselves."""
    reports = []
    run_on = campaign_module._run_on

    def keeping_reports(testbed, spec):
        outcome = run_on(testbed, spec)
        reports.append(testbed.pod.reports)
        return outcome

    campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign_module, "_run_on", keeping_reports)
        campaign.run()
    return campaign.outcomes, reports


@pytest.fixture(scope="session")
def campaign_outcomes(campaign_run):
    """The paper's full campaign: 160 fault-injection runs."""
    return campaign_run[0]


@pytest.fixture(scope="session")
def campaign_metrics(campaign_outcomes):
    return compute_metrics(campaign_outcomes)

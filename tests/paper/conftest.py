"""Shared fixtures for the paper's tables and figures.

The full §V campaign (8 fault types x 20 runs with mixed interference) is
run once per session and shared by every table/figure test.
"""

import pathlib

import pytest

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
def campaign_outcomes():
    """The paper's full campaign: 160 fault-injection runs."""
    campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014))
    campaign.run()
    return campaign.outcomes


@pytest.fixture(scope="session")
def campaign_metrics(campaign_outcomes):
    return compute_metrics(campaign_outcomes)

"""Metamorphic relations over diagnosis (ROADMAP 1(e)).

A transformation of a run that changes nothing about *what went wrong*
must not change what diagnosis says went wrong.
"""

import dataclasses

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.faulttree.library import EXPECTED_ROOT_CAUSE
from repro.operations.interference import InterferencePlan

RESOURCE_FAULTS = ("AMI_UNAVAILABLE", "KEYPAIR_UNAVAILABLE", "SG_UNAVAILABLE", "ELB_UNAVAILABLE")

#: The report diagnosing the orchestrator's terminal "Exception during …" line.
TERMINAL = ("conformance", "error:operation_error")


def confirmed(outcome) -> set[str]:
    return {n for r in outcome.reports for n, status in r.causes if status == "confirmed"}


@pytest.mark.parametrize("fault_type", RESOURCE_FAULTS)
def test_terminal_error_line_adds_no_unattributed_report(fault_type):
    """The fault's own last symptom — the orchestrator giving up — joins
    the diagnosis the earlier reports already reached: the confirmed
    root-cause set only grows, and it still points at the same fault."""
    # The paper campaign's first interference-free 4-instance run of the type.
    spec = next(
        s
        for s in Campaign(CampaignConfig(seed=2014)).build_specs()
        if s.fault_type == fault_type and s.cluster_size == 4 and s.interference == InterferencePlan()
    )
    with_line = run_single(spec)
    terminal = [r for r in with_line.reports if (r.trigger, r.trigger_detail) == TERMINAL]
    assert len(terminal) == 1, "the run must end in one diagnosed terminal error line"
    before_line = dataclasses.replace(
        with_line, reports=[r for r in with_line.reports if r is not terminal[0]]
    )
    # Precondition: the reports preceding the line already confirm the injected cause.
    assert confirmed(before_line) & EXPECTED_ROOT_CAUSE[fault_type]

    assert confirmed(with_line) >= confirmed(before_line)
    assert set(with_line.attributed_reports()) == set(before_line.attributed_reports()) == {fault_type}
    assert with_line.unattributed_reports() == before_line.unattributed_reports()

"""Metamorphic relations over diagnosis (ROADMAP 1(e)).

A transformation of a run that changes nothing about *what went wrong*
must not change what diagnosis says went wrong.
"""

import dataclasses
import itertools

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.faulttree.library import EXPECTED_ROOT_CAUSE
from repro.operations.base import Operation
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
    assert with_line.score().false_positives == before_line.score().false_positives


#: Lines the noise filter drops, one of each kind, the last carrying a
#: real step line's text behind the marker.  None says "Exception during":
#: the orchestrator's own failure time is read from the raw stream.
NOISE_LINES = (
    "DEBUG com.netflix.asgard.Task polling asg-dsn for status",
    "TRACE http GET /autoscaling?Action=DescribeAutoScalingGroups 200",
    "heartbeat ok from asgard-node-1",
    "polling elb-dsn for status",
    "DEBUG Terminating instance i-0000beef in group asg-dsn",
)


def _first_of_each_shape():
    """The seed-2014 paper campaign's first run of each (fault type, cluster size)."""
    firsts = {}
    for spec in Campaign(CampaignConfig(seed=2014)).build_specs():
        firsts.setdefault((spec.fault_type, spec.cluster_size), spec)
    return list(firsts.values())


@pytest.mark.parametrize("spec", _first_of_each_shape(), ids=lambda spec: spec.run_id)
def test_shifted_noise_lines_change_nothing(spec, monkeypatch):
    """A noise line before every real line shifts every line of the
    operation log and changes nothing: a dropped line draws no random
    number and schedules no event, so the whole outcome is equal."""
    plain = run_single(spec)
    log, noise = Operation.log, itertools.cycle(NOISE_LINES)

    def noisy(operation, message):
        log(operation, next(noise))
        log(operation, message)

    monkeypatch.setattr(Operation, "log", noisy)
    assert run_single(spec) == plain

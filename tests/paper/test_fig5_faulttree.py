"""Figure 5 — the fault tree walk and the paper's diagnosis log excerpt.

Reproduces the paper's §III.B.4 example run: the assertion that a new
instance uses the correct version fails because the launched instance is
based on the wrong AMI; diagnosis verifies the security group, the key
pair, then the AMI setting — excluding faults one by one until the root
cause is identified — and prints the same style of diagnosis log.
"""

import pytest

from repro.evaluation.faults import FaultPlan, schedule_fault
from repro.faulttree.library import build_standard_fault_trees
from repro.testbed import build_testbed


@pytest.fixture(scope="module")
def wrong_ami_run():
    testbed = build_testbed(cluster_size=4, seed=77)
    schedule_fault(testbed, FaultPlan(fault_type="AMI_CHANGED", inject_at=40.0))
    testbed.run_upgrade()
    return testbed


def test_fig5_tree_structure():
    """The Fig. 5 tree: build + validate, with the wrong-config subtree's
    '4 potential faults in total'."""
    registry = build_standard_fault_trees()
    tree = registry.get("asg-instance-count")
    wrong_config = tree.find("asg-wrong-config")
    assert len(wrong_config.children) == 4
    stats = registry.stats()
    print("\nFigure 5 — fault tree inventory")
    for tree_id, info in sorted(stats.items()):
        print(f"  {tree_id:22s} nodes={info['nodes']:3d} leaves={info['leaves']:3d}")


def test_fig5_diagnosis_walk(wrong_ami_run):
    """The wrong-AMI diagnosis confirms the root cause after excluding
    the sibling faults, as in the paper's log excerpt."""
    testbed = wrong_ami_run
    version_reports = [
        r
        for r in testbed.pod.reports
        if r.trigger_detail == "new-instance-correct-version"
    ]
    assert version_reports, "the low-level version assertion must have failed"
    report = version_reports[0]
    cause_ids = {c.node_id for c in report.root_causes}
    assert "wrong-ami" in cause_ids
    # Sibling config faults were verified and excluded.
    excluded = {t.node_id for t in report.tests if t.verdict == "excluded"}
    assert {"wrong-security-group", "wrong-key-pair"} <= excluded
    # Diagnosis time in the paper's seconds range.
    assert 0.5 < report.duration < 11.0

    print("\nFigure 5 — diagnosis log excerpt (wrong-AMI run)")
    for record in testbed.pod.storage.query(type="diagnosis")[:14]:
        print(f"  [{record.timestamp}] {record.message[:100]}")


def test_fig5_context_pruning(wrong_ami_run):
    """'If the assertion after New instance ready… triggered diagnosis,
    we prune all other sub-trees': the diagnosis triggered at the READY
    step never tests the update-launch-configuration subtree."""
    testbed = wrong_ami_run

    ready_reports = [r for r in testbed.pod.reports if r.step == "new_instance_ready"]
    for report in ready_reports:
        tested = {t.node_id for t in report.tests}
        assert "create-lc-fails" not in tested
        assert "lc-ami-missing" not in tested

"""The one target: four fields, one table, one comparison.

Everything above ``cloud`` that asks "is this what the upgrade should
have left behind?" goes through :meth:`TargetConfig.mismatches`; every
layer's spelling of a field is a column of :data:`FIELDS`.
"""

import dataclasses

import pytest

from repro.cloud.resources import Instance, LaunchConfiguration
from repro.diagnosis.report import RootCause
from repro.evaluation.faults import CONFIG_FAULTS
from repro.faulttree.library import EXPECTED_ROOT_CAUSE, build_standard_fault_trees
from repro.operations.target import BY_CAUSE, BY_FIELD, FIELDS, TargetConfig
from repro.recovery.plan import CATALOG, RESTORE, build_recovery_plan
from repro.testbed import build_testbed

TARGET = TargetConfig(
    image_id="ami-2", key_name="key-prod", instance_type="m1.small", security_groups=["sg-a", "sg-b"]
)
ROGUE = TargetConfig(
    image_id="ami-9", key_name="key-rogue", instance_type="m1.xlarge", security_groups=["sg-a"]
)


def described(kind: str, carried: TargetConfig) -> dict:
    values = dataclasses.asdict(carried)
    if kind == "instance":
        return Instance(instance_id="i-1", asg_name="asg", **values).describe()
    return LaunchConfiguration(name="lc", **values).describe()


@pytest.mark.parametrize("kind", ["instance", "launch_configuration"])
@pytest.mark.parametrize("row", FIELDS, ids=lambda row: row.field)
class TestMismatches:
    def test_equal(self, row, kind):
        assert TARGET.mismatches(described(kind, TARGET)) == []

    def test_different_on_this_row_only(self, row, kind):
        wrong = getattr(ROGUE, row.attr)
        view = described(kind, dataclasses.replace(TARGET, **{row.attr: wrong}))
        assert TARGET.mismatches(view) == [(row, getattr(TARGET, row.attr), wrong)]
        assert TARGET.mismatches(view, [row]) == TARGET.mismatches(view)
        assert TARGET.mismatches(view, [other for other in FIELDS if other is not row]) == []

    def test_security_groups_permuted(self, row, kind):
        view = described(kind, dataclasses.replace(TARGET, security_groups=["sg-b", "sg-a"]))
        assert TARGET.mismatches(view, [row]) == []

    def test_expectation_none_is_not_checked(self, row, kind):
        unset = dataclasses.replace(TARGET, **{row.attr: None})
        assert unset.mismatches(described(kind, ROGUE), [row]) == []
        assert [found[0] for found in unset.mismatches(described(kind, ROGUE))] == [
            other for other in FIELDS if other is not row
        ]


class TestTableIsComplete:
    """Both directions, like the tree ↔ probe wiring check: a name some
    layer uses resolves to a row, and every row's name is used."""

    @pytest.fixture(scope="class")
    def nodes(self):
        registry = build_standard_fault_trees()
        return [
            node
            for tree_id in registry.tree_ids()
            for node in registry.get(tree_id).root.iter_nodes()
        ]

    def test_every_field_parameter_of_the_trees(self, nodes):
        used = {node.test.params["field"] for node in nodes if node.test and "field" in node.test.params}
        assert used == set(BY_FIELD)

    def test_every_wrong_config_leaf(self, nodes):
        leaves = [node for node in nodes if node.is_leaf and node.node_id.startswith("wrong-")]
        assert {leaf.node_id for leaf in leaves} == set(BY_CAUSE)
        for leaf in leaves:
            assert leaf.test.params["field"] == BY_CAUSE[leaf.node_id].field

    def test_every_restore_row_of_the_catalog(self):
        restores = {cause for cause, (action, _template) in CATALOG.items() if action == RESTORE}
        assert restores == set(BY_CAUSE)

    def test_ground_truth_names_the_same_leaves(self):
        expected = {frozenset(EXPECTED_ROOT_CAUSE[fault]) for fault in CONFIG_FAULTS}
        assert expected == {frozenset({row.cause}) for row in FIELDS}

    def test_repository_carries_every_row(self):
        repository = TARGET.as_repository()
        for row in FIELDS:
            assert repository[row.config_key] == getattr(TARGET, row.attr)
        assert repository["expected_security_group"] == "sg-a"


def test_the_repository_is_what_diagnosis_hands_to_recovery():
    """``build_recovery_plan`` reads the same values whether
    given the configuration repository or a diagnosis request's params
    (they used to differ by ``N`` and ``expected_security_group``, which
    each consumer re-derived for itself)."""
    testbed = build_testbed(cluster_size=4, seed=3)
    testbed.start_upgrade("upgrade-1")
    repository = testbed.params.as_repository(since=testbed.started_at)
    request = testbed.pod.diagnosis.diagnose(["asg-instance-count"], "upgrade-1")
    assert set(repository) <= set(request.params)
    for status in ("confirmed", "undetermined"):
        for cause in CATALOG:
            one = [RootCause(cause, "", status)]
            assert build_recovery_plan(one, repository) == build_recovery_plan(
                one, request.params
            ), cause
    everything = [RootCause(cause, "", "confirmed") for cause in CATALOG]
    assert build_recovery_plan(everything, repository) == build_recovery_plan(
        everything, request.params
    )

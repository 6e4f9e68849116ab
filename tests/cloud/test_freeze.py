"""Tests for the immutable snapshot views.

Covers the frozen view/list contract (reads behave like plain
structures, writes fail loudly), every resource kind's describe
being frozen all the way down, and the read/write aliasing regressions:
against the seed's shallow snapshots (live ``describe()`` dicts) the
aliasing tests below fail, because a caller mutating its "snapshot"
silently edited authoritative region state.
"""

import copy
import json
import pickle

import pytest

from repro.cloud.freeze import FrozenList, FrozenMutationError, FrozenView
from repro.cloud.resources import (
    AmiImage,
    AutoScalingGroup,
    Instance,
    KeyPair,
    LaunchConfiguration,
    LoadBalancer,
    SecurityGroup,
)
from repro.cloud.state import CloudState


def sample():
    return {
        "InstanceId": "i-1",
        "State": {"Name": "running"},
        "SecurityGroups": ["sg-1", "sg-2"],
        "Tags": [{"Key": "role", "Value": "web"}],
    }


def frozen_sample():
    """``sample()`` built frozen, the way every ``describe()`` builds."""
    return FrozenView({
        "InstanceId": "i-1",
        "State": FrozenView({"Name": "running"}),
        "SecurityGroups": FrozenList(["sg-1", "sg-2"]),
        "Tags": FrozenList([FrozenView({"Key": "role", "Value": "web"})]),
    })


class TestFrozenView:
    def test_reads_like_a_dict(self):
        view = frozen_sample()
        assert view["InstanceId"] == "i-1"
        assert view.get("State")["Name"] == "running"
        assert set(view) == set(sample())
        assert len(view) == 4

    def test_equal_to_plain_structures(self):
        assert frozen_sample() == sample()
        assert sample() == frozen_sample()
        assert FrozenList(["a", FrozenView({"b": 1})]) == ["a", {"b": 1}]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda v: v.__setitem__("InstanceId", "i-evil"),
            lambda v: v.__delitem__("InstanceId"),
            lambda v: v.clear(),
            lambda v: v.pop("InstanceId"),
            lambda v: v.popitem(),
            lambda v: v.setdefault("New", 1),
            lambda v: v.update({"New": 1}),
        ],
    )
    def test_all_dict_mutators_blocked(self, mutate):
        view = frozen_sample()
        with pytest.raises(FrozenMutationError):
            mutate(view)
        assert view == sample()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.__setitem__(0, "x"),
            lambda l: l.__delitem__(0),
            lambda l: l.append("x"),
            lambda l: l.extend(["x"]),
            lambda l: l.insert(0, "x"),
            lambda l: l.remove("sg-1"),
            lambda l: l.clear(),
            lambda l: l.sort(),
            lambda l: l.reverse(),
            lambda l: l.pop(),
        ],
    )
    def test_all_list_mutators_blocked(self, mutate):
        frozen = FrozenList(["sg-1", "sg-2"])
        with pytest.raises(FrozenMutationError):
            mutate(frozen)
        assert frozen == ["sg-1", "sg-2"]

    def test_nested_structures_frozen_recursively(self):
        view = frozen_sample()
        with pytest.raises(FrozenMutationError):
            view["State"]["Name"] = "terminated"
        with pytest.raises(FrozenMutationError):
            view["Tags"][0]["Value"] = "db"
        with pytest.raises(FrozenMutationError):
            view["SecurityGroups"].append("sg-evil")

    def test_frozen_mutation_error_is_a_type_error(self):
        assert issubclass(FrozenMutationError, TypeError)

    def test_json_serializable(self):
        view = frozen_sample()
        assert json.loads(json.dumps(view, sort_keys=True)) == sample()

    def test_pickle_round_trip(self):
        view = frozen_sample()
        clone = pickle.loads(pickle.dumps(view))
        assert clone == view
        assert isinstance(clone, FrozenView)
        assert isinstance(clone["SecurityGroups"], FrozenList)

    def test_deepcopy_round_trip(self):
        view = frozen_sample()
        assert copy.deepcopy(view) == view

    def test_unhashable_like_the_plain_structures(self):
        """Nothing keys a cache or a pool on a view's value."""
        view = frozen_sample()
        for frozen in (view, view["Tags"]):
            with pytest.raises(TypeError):
                hash(frozen)


def make_group():
    return SecurityGroup(
        group_id="sg-web",
        group_name="web",
        description="http",
        ingress_rules=({"IpProtocol": "tcp", "FromPort": 80, "ToPort": 80},),
    )


class TestSnapshotAliasing:
    """Read/write aliasing regressions.

    The seed's snapshots were live ``describe()`` dicts: the
    security group's ``IpPermissions`` entries were the *same* dict
    objects as the resource's ``ingress_rules``, so editing a snapshot
    corrupted authoritative state.  These tests fail against that seed.
    """

    def test_snapshot_is_frozen(self):
        snap = make_group().describe()
        with pytest.raises(FrozenMutationError):
            snap["IpPermissions"][0]["FromPort"] = 22

    def test_snapshot_does_not_alias_live_ingress_rules(self):
        group = make_group()
        snap = group.describe()
        assert snap["IpPermissions"][0] is not group.ingress_rules[0]

    def test_describe_output_edit_leaves_live_state_untouched(self):
        group = make_group()
        described = group.describe()
        with pytest.raises(FrozenMutationError):
            described["IpPermissions"][0]["FromPort"] = 22
        assert group.ingress_rules[0]["FromPort"] == 80

    def test_history_view_immune_to_later_live_mutation(self):
        state = CloudState()
        group = make_group()
        state.put("security_group", "sg-web", group, now=1.0)
        group.ingress_rules[0]["FromPort"] = 22
        # The recorded history still shows the value at write time.
        assert state.view_at("security_group", "sg-web", as_of=1.5)[
            "IpPermissions"
        ][0]["FromPort"] == 80


def frozen_throughout(value) -> bool:
    """No container anywhere in ``value`` is a mutable one."""
    if isinstance(value, dict):
        return type(value) is FrozenView and all(map(frozen_throughout, value.values()))
    if isinstance(value, list):
        return type(value) is FrozenList and all(map(frozen_throughout, value))
    return True


class TestDescribeIsFrozen:
    def test_every_kind_frozen_all_the_way_down(self):
        """Each kind's describe is built frozen from its version's fields,
        with no freeze pass after it."""
        versions = [
            AmiImage("ami-1", "app", "v1"),
            make_group(),
            KeyPair("key", "fp:1"),
            LaunchConfiguration("lc", "ami-1", "m1.small", "key", ("sg-1", "sg-2")),
            Instance("i-1", "ami-1", "m1.small", "key", ("sg-1",)),
            LoadBalancer("elb", ("i-1", "i-2")),
            AutoScalingGroup("asg", "lc", 0, 4, 2, ("i-1", "i-2"), ("elb",)),
        ]
        for version in versions:
            view = version.describe()
            assert frozen_throughout(view), view

"""Tests for the copy-on-write snapshot primitives.

Covers the frozen view/list contract (reads behave like plain
structures, writes fail loudly), freeze/thaw round-trips, sharing with
the previous history entry, and the read/write aliasing regressions:
against the seed's shallow snapshots (live ``describe()`` dicts) the
aliasing tests below fail, because a caller mutating its "snapshot"
silently edited authoritative region state.
"""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.freeze import (
    FrozenList,
    FrozenMutationError,
    FrozenView,
    freeze,
    thaw,
)
from repro.cloud.resources import AutoScalingGroup, SecurityGroup
from repro.cloud.state import CloudState

from .reference_freeze import reference_freeze, shape


def sample():
    return {
        "InstanceId": "i-1",
        "State": {"Name": "running"},
        "SecurityGroups": ["sg-1", "sg-2"],
        "Tags": [{"Key": "role", "Value": "web"}],
    }


class TestFrozenView:
    def test_reads_like_a_dict(self):
        view = freeze(sample())
        assert view["InstanceId"] == "i-1"
        assert view.get("State")["Name"] == "running"
        assert set(view) == set(sample())
        assert len(view) == 4

    def test_equal_to_plain_structures(self):
        assert freeze(sample()) == sample()
        assert sample() == freeze(sample())
        assert freeze(["a", {"b": 1}]) == ["a", {"b": 1}]

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
        view = freeze(sample())
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
        frozen = freeze(["sg-1", "sg-2"])
        with pytest.raises(FrozenMutationError):
            mutate(frozen)
        assert frozen == ["sg-1", "sg-2"]

    def test_nested_structures_frozen_recursively(self):
        view = freeze(sample())
        with pytest.raises(FrozenMutationError):
            view["State"]["Name"] = "terminated"
        with pytest.raises(FrozenMutationError):
            view["Tags"][0]["Value"] = "db"
        with pytest.raises(FrozenMutationError):
            view["SecurityGroups"].append("sg-evil")

    def test_frozen_mutation_error_is_a_type_error(self):
        assert issubclass(FrozenMutationError, TypeError)

    def test_json_serializable(self):
        view = freeze(sample())
        assert json.loads(json.dumps(view, sort_keys=True)) == sample()

    def test_pickle_round_trip(self):
        view = freeze(sample())
        clone = pickle.loads(pickle.dumps(view))
        assert clone == view
        assert isinstance(clone, FrozenView)
        assert isinstance(clone["SecurityGroups"], FrozenList)

    def test_deepcopy_round_trip(self):
        view = freeze(sample())
        assert copy.deepcopy(view) == view

    def test_unhashable_like_the_plain_structures(self):
        """Nothing keys a cache or a pool on a view's value."""
        view = freeze(sample())
        for frozen in (view, view["Tags"]):
            with pytest.raises(TypeError):
                hash(frozen)


class TestFreezeThaw:
    def test_freeze_is_idempotent(self):
        once = freeze(sample())
        assert freeze(once) is once

    def test_thaw_returns_plain_mutable_structures(self):
        scratch = thaw(freeze(sample()))
        assert type(scratch) is dict
        assert type(scratch["SecurityGroups"]) is list
        assert type(scratch["State"]) is dict
        scratch["State"]["Name"] = "terminated"  # must not raise

    def test_thaw_is_detached(self):
        view = freeze(sample())
        scratch = view.thaw()
        scratch["SecurityGroups"].append("sg-evil")
        assert view["SecurityGroups"] == ["sg-1", "sg-2"]


def make_group():
    return SecurityGroup(
        group_id="sg-web",
        group_name="web",
        description="http",
        ingress_rules=[{"IpProtocol": "tcp", "FromPort": 80, "ToPort": 80}],
    )


class TestSnapshotAliasing:
    """Read/write aliasing regressions.

    The seed's snapshots were live ``describe()`` dicts: the
    security group's ``IpPermissions`` entries were the *same* dict
    objects as the resource's ``ingress_rules``, so editing a snapshot
    corrupted authoritative state.  These tests fail against that seed.
    """

    def test_snapshot_is_frozen(self):
        snap = freeze(make_group().describe())
        with pytest.raises(FrozenMutationError):
            snap["IpPermissions"][0]["FromPort"] = 22

    def test_snapshot_does_not_alias_live_ingress_rules(self):
        group = make_group()
        snap = freeze(group.describe())
        assert snap["IpPermissions"][0] is not group.ingress_rules[0]

    def test_thawed_snapshot_edit_leaves_live_state_untouched(self):
        group = make_group()
        snap = freeze(group.describe())
        scratch = snap.thaw()
        scratch["IpPermissions"][0]["FromPort"] = 22
        assert group.ingress_rules[0]["FromPort"] == 80

    def test_describe_output_edit_leaves_live_state_untouched(self):
        group = make_group()
        described = group.describe()
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


class TestStateCounters:
    def test_stale_and_fresh_reads_counted(self):
        from repro.cloud.consistency import ConsistencyModel, EventuallyConsistentView
        from repro.cloud.resources import AmiImage
        from repro.sim.clock import SimClock

        clock = SimClock()
        state = CloudState()
        view = EventuallyConsistentView(
            state, clock, ConsistencyModel(mean_lag=5.0, seed=7)
        )
        state.put("ami", "ami-1", AmiImage("ami-1", "app", "v1"), now=0.0)
        clock.advance_to(1000.0)
        state.record_write("ami", "ami-1", now=1000.0)
        # 3s after the write with mean lag 5s: some sampled lags reach
        # behind the write (stale), some do not (fresh).
        clock.advance_to(1003.0)
        for _ in range(50):
            view.read("ami", "ami-1")
        counters = state.data_plane_counters
        assert counters.get("cloud.reads.stale", 0) > 0
        assert counters.get("cloud.reads.fresh", 0) > 0
        assert (
            counters["cloud.reads.stale"] + counters["cloud.reads.fresh"] == 50
        )


# -- fast path == recursive reference ----------------------------------------


class Box(dict):
    """A dict subclass (freeze must still freeze it)."""


class Row(list):
    """A list subclass."""


class Sealed(FrozenView):
    """A FrozenView subclass (freeze must return it as-is)."""


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, width=16),
    st.text("abc", max_size=2),
)


def _containers(children):
    keys = st.text("kxyz", min_size=1, max_size=2)
    return st.one_of(
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=3).map(Box),
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(Row),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=2).map(freeze),
        st.dictionaries(keys, children, max_size=2).map(freeze),
        st.dictionaries(keys, scalars, max_size=2).map(Sealed),
        # Sets hold hashable members only; a set of scalars is enough to
        # reach that branch.
        st.frozensets(scalars, max_size=3),
        st.sets(scalars, max_size=3),
        # A foreign leaf: passed through as-is.
        st.just(bytearray(b"x")),
    )


structures = st.recursive(scalars, _containers, max_leaves=12)


class TestFastPathMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(structures)
    def test_same_without_pool_or_counter(self, value):
        fast = freeze(value)
        assert shape(fast) == shape(reference_freeze(value))
        if isinstance(fast, (FrozenView, FrozenList)):
            # Already-frozen input comes back as-is.
            assert freeze(fast) is fast

    def test_describe_shaped_input(self):
        view = freeze(sample())
        assert type(view) is FrozenView and type(view["Tags"]) is FrozenList
        assert type(view["Tags"][0]) is FrozenView and type(view["State"]) is FrozenView
        assert freeze(sample()) is not view


class PlainRefreeze(CloudState):
    """``record_write`` without ``share_unchanged``: every write re-freezes."""

    def record_write(self, kind: str, identifier: str, now: float) -> None:
        resource = self._registry(kind).get(identifier)
        snapshot = resource and freeze(resource.describe())
        self._append_history(kind, identifier, now, snapshot)


class TestShareUnchanged:
    """``record_write`` keeps the previous entry's frozen parts for what a
    write did not touch — with the same history as re-freezing them."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "drop", "flip", "rules", "same"]), st.integers(0, 9)),
            min_size=1,
            max_size=25,
        )
    )
    def test_history_matches_plain_refreeze(self, edits):
        states = CloudState(), PlainRefreeze()
        groups = [AutoScalingGroup("asg", "lc", 0, 9, 1, ["i-0", "i-1"], ["elb"]) for _ in states]
        rules = [make_group() for _ in states]
        for state, group, rule in zip(states, groups, rules):
            state.put("auto_scaling_group", "asg", group, now=0.0)
            state.put("security_group", "sg-web", rule, now=0.0)
        for now, (edit, n) in enumerate(edits, start=1):
            for state, group, rule in zip(states, groups, rules):
                if edit == "add":
                    group.instance_ids.insert(n % (len(group.instance_ids) + 1), f"i-{now + 10}")
                elif edit == "drop" and group.instance_ids:
                    del group.instance_ids[n % len(group.instance_ids)]
                elif edit == "flip":
                    group.desired_capacity = n
                    group.suspended_processes ^= {"Launch"}
                elif edit == "rules":
                    rule.ingress_rules.append({"IpProtocol": "tcp", "FromPort": n, "ToPort": n})
                    state.record_write("security_group", "sg-web", float(now))
                state.record_write("auto_scaling_group", "asg", float(now))
            new, old = states
            assert new._history.keys() == old._history.keys()
            for key, (times, views) in new._history.items():
                assert times == old._history[key][0]
                assert shape(views) == shape(old._history[key][1])
            latest = new.latest_view("auto_scaling_group", "asg")
            assert type(latest) is FrozenView and latest == groups[0].describe()

    def test_untouched_fields_are_the_previous_objects(self):
        state = CloudState()
        group = AutoScalingGroup("asg", "lc", 0, 9, 3, ["i-1", "i-2", "i-3"], ["elb"])
        state.put("auto_scaling_group", "asg", group, now=0.0)
        before = state.latest_view("auto_scaling_group", "asg")
        group.desired_capacity = 4
        group.instance_ids.remove("i-2")
        state.record_write("auto_scaling_group", "asg", now=1.0)
        after = state.latest_view("auto_scaling_group", "asg")
        assert after["LoadBalancerNames"] is before["LoadBalancerNames"]
        assert after["Instances"] is not before["Instances"]
        assert after["Instances"][0] is before["Instances"][0]
        assert after["Instances"][1] is before["Instances"][2]
        assert before["Instances"] == [{"InstanceId": i} for i in ("i-1", "i-2", "i-3")]

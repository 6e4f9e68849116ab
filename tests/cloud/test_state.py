"""Tests for region state, write history and limits."""

import bisect
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.errors import MalformedRequest, ResourceNotFound
from repro.cloud.freeze import FrozenMutationError
from repro.cloud.limits import MAX_CALLS_PER_WINDOW, RATE_WINDOW, RateLimiter
from repro.cloud.resources import (
    AmiImage,
    AutoScalingGroup,
    Instance,
    InstanceState,
    KeyPair,
    LaunchConfiguration,
    LoadBalancer,
    SecurityGroup,
)
from repro.cloud.state import KINDS, CloudState


def make_image(image_id="ami-1"):
    return AmiImage(image_id=image_id, name="app", version="v1")


class TestRegistry:
    def test_put_and_get(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=1.0)
        assert state.get("ami", "ami-1").version == "v1"

    def test_get_missing_raises_typed_code(self):
        state = CloudState()
        with pytest.raises(ResourceNotFound) as excinfo:
            state.get("ami", "ami-nope")
        assert excinfo.value.code == "InvalidAMIID.NotFound"

    def test_get_missing_id_raises_for_every_kind(self):
        state = CloudState()
        for kind in KINDS:
            with pytest.raises(ResourceNotFound):
                state.get(kind, "nope")
            assert not state.exists(kind, "nope")

    def test_unknown_kind_is_a_key_error_not_a_missing_resource(self):
        state = CloudState()
        for lookup in (state.get, state.exists):
            with pytest.raises(KeyError) as excinfo:
                lookup("volume", "vol-1")
            assert not isinstance(excinfo.value, ResourceNotFound)
        with pytest.raises(KeyError):
            state.put("volume", "vol-1", object(), now=0.0)

    def test_registry_map_tracks_the_public_dicts(self):
        state = CloudState()
        state.amis["ami-direct"] = make_image("ami-direct")
        assert state.get("ami", "ami-direct").image_id == "ami-direct"
        assert [kind for kind in KINDS if state._registries[kind]] == ["ami"]

    def test_exists(self):
        state = CloudState()
        assert not state.exists("key_pair", "k")
        state.put("ami", "ami-1", make_image(), now=0.0)
        assert state.exists("ami", "ami-1")

    def test_delete_removes_and_tombstones(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=1.0)
        state.delete("ami", "ami-1", now=2.0)
        assert not state.exists("ami", "ami-1")
        assert state.history("ami", "ami-1")[-1][1] is None

    def test_delete_missing_raises(self):
        state = CloudState()
        with pytest.raises(ResourceNotFound):
            state.delete("ami", "ami-1", now=0.0)

    def test_new_ids_unique_and_prefixed(self):
        state = CloudState()
        ids = {state.new_id("instance") for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith("i-") for i in ids)

    def test_new_id_prefixes_per_kind(self):
        state = CloudState()
        assert state.new_id("ami").startswith("ami-")
        assert state.new_id("security_group").startswith("sg-")
        assert state.new_id("load_balancer").startswith("elb-")


class TestHistory:
    def test_view_at_before_creation_is_absent(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=10.0)
        assert state.view_at("ami", "ami-1", as_of=5.0) is None

    def test_view_at_sees_latest_write_before_time(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=10.0)
        state.write("ami", "ami-1", 20.0, version="v2")
        assert state.view_at("ami", "ami-1", as_of=15.0)["Version"] == "v1"
        assert state.view_at("ami", "ami-1", as_of=25.0)["Version"] == "v2"

    def test_view_at_after_tombstone_is_absent(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=1.0)
        state.delete("ami", "ami-1", now=5.0)
        assert state.view_at("ami", "ami-1", as_of=4.0) is not None
        assert state.view_at("ami", "ami-1", as_of=6.0) is None

    def test_view_is_immutable(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=1.0)
        view = state.view_at("ami", "ami-1", as_of=2.0)
        with pytest.raises(FrozenMutationError):
            view["Version"] = "tampered"
        assert state.view_at("ami", "ami-1", as_of=2.0)["Version"] == "v1"

    def test_views_shared_by_reference_across_reads(self):
        state = CloudState()
        state.put("ami", "ami-1", make_image(), now=1.0)
        assert state.view_at("ami", "ami-1", as_of=2.0) is state.view_at(
            "ami", "ami-1", as_of=3.0
        )
        assert state.view_at("ami", "ami-1", as_of=2.0) is state.latest_view("ami", "ami-1")

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_view_at_consistent_with_history(self, times):
        """The view at time t is always the last write at or before t."""
        state = CloudState()
        writes = sorted(times)
        state.put("ami", "ami-1", make_image(), now=writes[0])
        for index, t in enumerate(writes):
            state.write("ami", "ami-1", t, version=f"v{index}")
        for index, t in enumerate(writes):
            view = state.view_at("ami", "ami-1", as_of=t)
            # Several writes can share a timestamp; the last one wins.
            last_index = max(i for i, w in enumerate(writes) if w <= t)
            assert view["Version"] == f"v{last_index}"


#: One version of each of the seven kinds, and one of its fields.
VERSIONS = [
    ("ami", make_image(), "version"),
    ("security_group", SecurityGroup("sg-1", "web"), "description"),
    ("key_pair", KeyPair("key", "fp:1"), "fingerprint"),
    ("launch_configuration", LaunchConfiguration("lc", "ami-1", "m1.small", "key", ("sg",)),
     "security_groups"),
    ("instance", Instance("i-1", "ami-1", "m1.small", "key", ("sg",)), "state"),
    ("load_balancer", LoadBalancer("elb", ("i-1",)), "registered_instances"),
    ("auto_scaling_group", AutoScalingGroup("asg", "lc", 0, 4, 1, ("i-1",)), "instance_ids"),
]


class TestOneWritePath:
    @pytest.mark.parametrize("kind, version, field", VERSIONS, ids=[v[0] for v in VERSIONS])
    def test_only_write_changes_a_resource(self, kind, version, field):
        """A field assignment raises, a write naming an unknown field
        raises before anything changes, and a write records the version
        it makes the registry's."""
        state = CloudState()
        state.put(kind, "r", version, now=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(version, field, getattr(version, field))
        with pytest.raises(MalformedRequest):
            state.write(kind, "r", 1.0, **{field: getattr(version, field), "bogus_field": 1})
        assert state.get(kind, "r") is version
        assert len(state.history(kind, "r")) == 1
        view = state.write(kind, "r", 2.0, **{field: getattr(version, field)})
        written = state.get(kind, "r")
        assert written is not version and written == version
        assert state.latest_view(kind, "r") is view
        assert view == written.describe() == version.describe()
        assert [at for at, _ in state.history(kind, "r")] == [0.0, 2.0]

    def test_write_stores_lists_as_tuples(self):
        state = CloudState()
        state.put("auto_scaling_group", "asg", AutoScalingGroup("asg", "lc", 0, 4, 1), now=0.0)
        state.write("auto_scaling_group", "asg", 1.0, instance_ids=["i-1", "i-2"])
        written = state.get("auto_scaling_group", "asg")
        assert written.instance_ids == ("i-1", "i-2")
        view = state.latest_view("auto_scaling_group", "asg")
        assert view["Instances"] == [{"InstanceId": "i-1"}, {"InstanceId": "i-2"}]

    def test_write_to_a_missing_resource_raises(self):
        with pytest.raises(ResourceNotFound):
            CloudState().write("ami", "ami-nope", 0.0, version="v2")


class TestAggregates:
    def test_active_instance_count(self):
        state = CloudState()
        for index, status in enumerate(
            [InstanceState.PENDING, InstanceState.RUNNING, InstanceState.TERMINATED]
        ):
            instance = Instance(
                instance_id=f"i-{index}",
                image_id="ami-1",
                instance_type="m1.small",
                key_name="k",
                security_groups=[],
                state=status,
            )
            state.put("instance", instance.instance_id, instance, now=0.0)
        assert state.active_instance_count() == 2

    def test_running_instances_filtered_by_asg(self):
        state = CloudState()
        for index, asg in enumerate(["a", "a", "b"]):
            instance = Instance(
                instance_id=f"i-{index}",
                image_id="ami-1",
                instance_type="m1.small",
                key_name="k",
                security_groups=[],
                state=InstanceState.RUNNING,
                asg_name=asg,
            )
            state.put("instance", instance.instance_id, instance, now=0.0)
        assert len(state.running_instances()) == 3
        assert len(state.running_instances("a")) == 2


class TestRateLimiter:
    def test_allows_until_limit(self):
        limiter = RateLimiter()
        for index in range(MAX_CALLS_PER_WINDOW):
            assert limiter.try_acquire(index / MAX_CALLS_PER_WINDOW / 2)
        assert not limiter.try_acquire(0.5)

    def test_window_slides(self):
        limiter = RateLimiter()
        for _ in range(MAX_CALLS_PER_WINDOW):
            assert limiter.try_acquire(0.0)
        assert not limiter.try_acquire(0.5)
        assert limiter.try_acquire(1.5)

    def test_window_counts_only_its_own_calls(self):
        limiter = RateLimiter()
        limiter.try_acquire(0.0)
        limiter.try_acquire(0.9)
        # At 1.5 only the t=0.9 call is inside: all other slots are free.
        for _ in range(MAX_CALLS_PER_WINDOW - 1):
            assert limiter.try_acquire(1.5)
        assert not limiter.try_acquire(1.5)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=5), st.integers(1, 2 * MAX_CALLS_PER_WINDOW)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_limit_in_any_window(self, bursts):
        """Bursts of calls at a few instants, up to twice the limit each."""
        limiter = RateLimiter()
        granted = []
        for t, calls in sorted(bursts):
            granted += [t for _ in range(calls) if limiter.try_acquire(t)]
        for t in granted:
            inside = bisect.bisect_right(granted, t) - bisect.bisect_right(granted, t - RATE_WINDOW)
            assert inside <= MAX_CALLS_PER_WINDOW

"""The sampled monitor vs a full-copy reference.

The monitor samples, per crawl, only the resources the write log names;
the seed stored a deep copy of the whole region every tick.  These tests
run a scripted upgrade-with-faults scenario — config drift, reverts,
tombstones (deleted AMI / key pair), instance churn — against *both*
implementations at the exact same crawl instants and assert every answer
the monitor gives (``at``, ``changes``) is byte-identical
(``json.dumps``) to the full-copy reference.

(File, class and test names date from the delta-encoded snapshot store
these tests were first written against; they are kept so the test ids
stay stable.)
"""

import copy
import json
import types

import pytest

from repro.cloud.monitor import CloudMonitor
from repro.cloud.provider import SimulatedCloud
from repro.cloud.resources import Instance, InstanceState
from repro.cloud.state import KINDS, CloudState


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


class FullCopyReference:
    """The seed's strategy: deep-copy every resource's describe() per tick."""

    def __init__(self, state) -> None:
        self.state = state
        self.ticks: list[tuple[float, dict]] = []

    def record(self, now: float) -> None:
        region = {
            kind: {
                identifier: copy.deepcopy(resource.describe())
                for identifier, resource in self.state._registry(kind).items()
            }
            for kind in KINDS
        }
        self.ticks.append((now, region))

    def at(self, when: float, kind: str, identifier: str):
        answer = None
        for taken_at, region in self.ticks:
            if taken_at > when:
                break
            answer = region.get(kind, {}).get(identifier)
        return answer

    def timeline(self, kind: str, identifier: str):
        """Deduplicated (time, view) pairs over every tick."""
        result = []
        previous = None
        seen_any = False
        for taken_at, region in self.ticks:
            view = region.get(kind, {}).get(identifier)
            if not seen_any or view != previous:
                result.append((taken_at, view))
                previous = view
                seen_any = True
        return result


@pytest.fixture
def scripted_run():
    """Upgrade-with-faults run recorded by both monitor implementations."""
    cloud = SimulatedCloud(seed=7)
    reference = FullCopyReference(cloud.state)

    # Record the reference at the monitor's exact crawl instants.
    original_take = cloud.monitor.take_snapshot

    def take_and_record():
        reference.record(cloud.engine.now)
        return original_take()

    cloud.monitor.take_snapshot = take_and_record

    api = cloud.api("setup")
    ami_v1 = api.register_image("app", "v1")["ImageId"]
    ami_v2 = api.register_image("app", "v2")["ImageId"]
    api.create_key_pair("key-prod")
    api.create_key_pair("key-old")
    api.create_security_group("sg-web")
    api.create_load_balancer("elb-dsn")
    api.create_launch_configuration("lc-v1", ami_v1, "m1.small", "key-prod", ["sg-web"])
    api.create_auto_scaling_group("asg-dsn", "lc-v1", 1, 8, 4, ["elb-dsn"])
    cloud.start()
    engine = cloud.engine

    engine.run(until=100.0)
    # Rolling upgrade with injected faults: config drift ...
    drift = cloud.injector.change_lc_instance_type("lc-v1", "m1.xlarge")
    engine.run(until=160.0)
    # ... a transient fault that reverts (the flapping class) ...
    cloud.injector.revert(drift)
    rogue = cloud.injector.change_lc_ami("lc-v1", ami_v2)
    engine.run(until=220.0)
    cloud.injector.revert(rogue)
    # ... tombstones: resources deleted mid-run ...
    cloud.injector.make_ami_unavailable(ami_v2)
    api.delete_key_pair("key-old")
    engine.run(until=280.0)
    # ... instance churn (terminate; ASG reconciles a replacement).
    fleet = api.describe_auto_scaling_group("asg-dsn")["Instances"]
    api.terminate_instance(fleet[0]["InstanceId"])
    # Long quiet tail: crawls that find nothing written.
    engine.run(until=1000.0)
    return cloud, reference


def all_keys(reference):
    keys = set()
    for _, region in reference.ticks:
        for kind, by_kind in region.items():
            keys.update((kind, identifier) for identifier in by_kind)
    return sorted(keys)


class TestDeltaEquivalence:
    def test_view_at_every_tick_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        assert monitor.ticks == [taken_at for taken_at, _ in reference.ticks]
        for when in monitor.ticks:
            for kind, identifier in all_keys(reference):
                assert dumps(monitor.at(when, kind, identifier)) == dumps(
                    reference.at(when, kind, identifier)
                ), (when, kind, identifier)

    def test_view_at_between_ticks_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        for when in monitor.ticks:
            off_tick = when + 1.7
            for kind, identifier in all_keys(reference):
                assert dumps(monitor.at(off_tick, kind, identifier)) == dumps(
                    reference.at(off_tick, kind, identifier)
                )

    def test_resource_timeline_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        for kind, identifier in all_keys(reference):
            assert dumps(monitor.changes(kind, identifier)) == dumps(
                reference.timeline(kind, identifier)
            ), (kind, identifier)

    def test_quiet_ticks_reuse_everything(self, scripted_run):
        cloud, _ = scripted_run
        counters = cloud.state.data_plane_counters
        assert counters["cloud.monitor.reused"] > counters["cloud.monitor.refreshed"]


def test_write_later_in_the_crawl_instant_belongs_to_the_next_crawl():
    """The 5 s reconcile loop shares instants with the crawl: a crawl
    records what the region held when it ran, not ``view_at(tick)``."""
    cloud = SimulatedCloud(seed=1)
    api = cloud.api("setup")
    ami = api.register_image("app", "v1")["ImageId"]
    api.create_key_pair("key-prod")
    api.create_security_group("sg-web")
    api.create_launch_configuration("lc-v1", ami, "m1.small", "key-prod", ["sg-web"])
    cloud.start()
    engine, state, monitor = cloud.engine, cloud.state, cloud.monitor
    engine.run(until=27.0)

    def write_at_thirty():
        # Queued at t=27, after the crawler queued its own t=30 wake-up at
        # t=0: at t=30 the crawl runs first, then this write.
        yield engine.timeout(3.0)
        state.get("launch_configuration", "lc-v1").instance_type = "m1.xlarge"
        state.record_write("launch_configuration", "lc-v1", engine.now)

    engine.process(write_at_thirty())
    engine.run(until=61.0)
    assert monitor.ticks == [0.0, 30.0, 60.0]
    assert state.view_at("launch_configuration", "lc-v1", 30.0)["InstanceType"] == "m1.xlarge"
    assert monitor.at(30.0, "launch_configuration", "lc-v1")["InstanceType"] == "m1.small"
    assert monitor.at(60.0, "launch_configuration", "lc-v1")["InstanceType"] == "m1.xlarge"
    assert [when for when, _ in monitor.changes("launch_configuration", "lc-v1")] == [0.0, 60.0]


#: The write script of :func:`_tick_counter_deltas`: every tick rewrites
#: the next ``WRITES_PER_TICK`` of the first ``2 * WRITES_PER_TICK``
#: instances, so it is the same sequence of (identifier, new value)
#: writes on any region at least that large.
TICKS = 6
WRITES_PER_TICK = 3


def _tick_counter_deltas(region_size: int) -> list[dict[str, int]]:
    """Per-tick data-plane counter deltas of the write script on a region."""
    state = CloudState()
    for index in range(region_size):
        identifier = f"i-{index:08x}"
        instance = Instance(
            instance_id=identifier,
            image_id="ami-00000001",
            instance_type="m1.small",
            key_name="key-prod",
            security_groups=["sg-web"],
            state=InstanceState.RUNNING,
            asg_name="asg-dsn",
        )
        state.put("instance", identifier, instance, now=0.0)
    clock = types.SimpleNamespace(now=0.0)  # all the monitor reads of an engine
    monitor = CloudMonitor(clock, state)
    monitor.take_snapshot()  # the one full crawl

    deltas = []
    for tick in range(TICKS):
        clock.now = float(tick + 1)
        before = dict(state.data_plane_counters)
        for write in range(tick * WRITES_PER_TICK, (tick + 1) * WRITES_PER_TICK):
            identifier = f"i-{write % (2 * WRITES_PER_TICK):08x}"
            resource = state.instances[identifier]
            resource.instance_type = (
                "m1.large" if resource.instance_type == "m1.small" else "m1.small"
            )
            state.record_write("instance", identifier, clock.now)
        monitor.take_snapshot()
        after = state.data_plane_counters
        deltas.append({name: after[name] - before.get(name, 0) for name in after})
    return deltas


class TestTickCostFollowsWrites:
    """Per-tick work is proportional to writes, not region size — as
    counts: the same write script on an 8- and a 64-instance region
    freezes, shares and re-captures exactly the same number of views."""

    def test_same_writes_same_work_on_a_larger_region(self):
        small = _tick_counter_deltas(8)
        large = _tick_counter_deltas(64)
        work = ("cloud.monitor.refreshed", "cloud.snapshot.copied", "cloud.snapshot.shared")
        for tick, (s, l) in enumerate(zip(small, large, strict=True)):
            assert {k: s[k] for k in work} == {k: l[k] for k in work}, tick
            assert s["cloud.monitor.refreshed"] == WRITES_PER_TICK
            # Everything the tick did not re-capture is shared by
            # reference — the only counter that sees the region size.
            assert s["cloud.monitor.reused"] == 8 - WRITES_PER_TICK
            assert l["cloud.monitor.reused"] == 64 - WRITES_PER_TICK

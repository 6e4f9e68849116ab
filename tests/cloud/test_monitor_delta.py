"""The sampled monitor vs a full-copy reference.

A crawl records only where the region's write sequence stood, and the
monitor reads the region's history as of those positions; the seed
stored a deep copy of the whole region every tick.  These tests run a
scripted upgrade-with-faults scenario — config drift, reverts,
tombstones (deleted AMI / key pair), instance churn — against *both*
implementations at the exact same crawl instants and assert every answer
the monitor gives (``changes``, and the view as of the last crawl at or
before any time, read off it) is byte-identical (``json.dumps``) to the
full-copy reference.

(File, class and test names date from the delta-encoded snapshot store
these tests were first written against; they are kept so the test ids
stay stable.)
"""

import json
import types

import pytest

from repro.cloud.monitor import CloudMonitor
from repro.cloud.provider import SimulatedCloud
from repro.cloud.resources import Instance, InstanceState
from repro.cloud.state import KINDS, CloudState

from .history import monitor_at, plain


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
                identifier: plain(resource.describe())
                for identifier, resource in self.state._registries[kind].items()
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
    drift = cloud.injector.change("launch_configuration", "lc-v1", instance_type="m1.xlarge")
    engine.run(until=160.0)
    # ... a transient fault that reverts (the flapping class) ...
    cloud.injector.revert(drift)
    rogue = cloud.injector.change("launch_configuration", "lc-v1", image_id=ami_v2)
    engine.run(until=220.0)
    cloud.injector.revert(rogue)
    # ... tombstones: resources deleted mid-run ...
    cloud.injector.remove("ami", ami_v2)
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
                assert dumps(monitor_at(monitor, when, kind, identifier)) == dumps(
                    reference.at(when, kind, identifier)
                ), (when, kind, identifier)

    def test_view_at_between_ticks_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        for when in monitor.ticks:
            off_tick = when + 1.7
            for kind, identifier in all_keys(reference):
                assert dumps(monitor_at(monitor, off_tick, kind, identifier)) == dumps(
                    reference.at(off_tick, kind, identifier)
                )

    def test_resource_timeline_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        for kind, identifier in all_keys(reference):
            assert dumps(monitor.changes(kind, identifier)) == dumps(
                reference.timeline(kind, identifier)
            ), (kind, identifier)


def test_write_later_in_the_crawl_instant_belongs_to_the_next_crawl():
    """The 5 s reconcile loop shares instants with the crawl: a crawl
    sees the writes before its position, not ``view_at(tick)``."""
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
        state.write("launch_configuration", "lc-v1", engine.now, instance_type="m1.xlarge")

    engine.process(write_at_thirty())
    engine.run(until=61.0)
    assert monitor.ticks == [0.0, 30.0, 60.0]
    assert state.view_at("launch_configuration", "lc-v1", 30.0)["InstanceType"] == "m1.xlarge"
    assert monitor_at(monitor, 30.0, "launch_configuration", "lc-v1")["InstanceType"] == "m1.small"
    assert monitor_at(monitor, 60.0, "launch_configuration", "lc-v1")["InstanceType"] == "m1.xlarge"
    assert [when for when, _ in monitor.changes("launch_configuration", "lc-v1")] == [0.0, 60.0]


#: The write script of :func:`_scripted_region`: every tick rewrites the
#: next ``WRITES_PER_TICK`` of the first ``2 * WRITES_PER_TICK`` instances,
#: so it is the same sequence of (identifier, new value) writes on any
#: region at least that large.
TICKS = 6
WRITES_PER_TICK = 3


def _scripted_region(region_size: int):
    """The write script on a region of ``region_size`` instances, crawled
    by the monitor and the full-copy reference after every tick."""
    state = CloudState()
    for index in range(region_size):
        identifier = f"i-{index:08x}"
        instance = Instance(
            instance_id=identifier,
            image_id="ami-00000001",
            instance_type="m1.small",
            key_name="key-prod",
            security_groups=("sg-web",),
            state=InstanceState.RUNNING,
            asg_name="asg-dsn",
        )
        state.put("instance", identifier, instance, now=0.0)
    clock = types.SimpleNamespace(now=0.0)  # all the monitor reads of an engine
    monitor, reference = CloudMonitor(clock, state), FullCopyReference(state)

    def crawl():
        reference.record(clock.now)
        monitor.take_snapshot()

    crawl()
    for tick in range(TICKS):
        clock.now = float(tick + 1)
        for write in range(tick * WRITES_PER_TICK, (tick + 1) * WRITES_PER_TICK):
            identifier = f"i-{write % (2 * WRITES_PER_TICK):08x}"
            small = state.instances[identifier].instance_type == "m1.small"
            flipped = "m1.large" if small else "m1.small"
            state.write("instance", identifier, clock.now, instance_type=flipped)
        crawl()
    return monitor, reference


class TestRegionSize:
    """The same write script on an 8- and a 64-instance region: on both,
    the monitor answers what deep-copying the region at every crawl
    answers, and the written instances' timelines are the same."""

    def test_same_writes_same_changes_on_a_larger_region(self):
        written = [f"i-{index:08x}" for index in range(2 * WRITES_PER_TICK)]
        timelines = []
        for region_size in (8, 64):
            monitor, reference = _scripted_region(region_size)
            for kind, identifier in all_keys(reference):
                assert monitor.changes(kind, identifier) == reference.timeline(
                    kind, identifier
                ), (region_size, identifier)
            timelines.append([monitor.changes("instance", i) for i in written])
        small, large = timelines
        assert small == large
        assert [len(timeline) for timeline in small] == [4] * len(written)


class TestMonitor:
    def test_snapshot_and_current(self, provisioned_cloud):
        monitor = provisioned_cloud.monitor
        view = monitor_at(monitor, provisioned_cloud.engine.now, "auto_scaling_group", "asg-dsn")
        assert view is not None
        assert view["DesiredCapacity"] == 4

    def test_at_returns_historical_view(self, provisioned_cloud):
        monitor = provisioned_cloud.monitor
        early = monitor.ticks[0]
        assert monitor_at(monitor, early, "auto_scaling_group", "asg-dsn") is not None
        assert monitor_at(monitor, early - 1, "auto_scaling_group", "asg-dsn") is None

    def test_changes_collapse_identical_views(self, provisioned_cloud):
        monitor = provisioned_cloud.monitor
        changes = monitor.changes("load_balancer", "elb-dsn")
        # Far fewer distinct views than crawls made.
        assert 1 <= len(changes) <= len(monitor.ticks)

    def test_changes_detects_mutation(self, provisioned_cloud):
        cloud = provisioned_cloud
        before = len(cloud.monitor.changes("launch_configuration", "lc-v1"))
        # Change it the way every real path does: one write (the monitor
        # reads the history).
        cloud.state.write(
            "launch_configuration", "lc-v1", cloud.engine.now, instance_type="m1.xlarge"
        )
        cloud.engine.run(until=cloud.engine.now + 60)  # let the crawler see it
        after = len(cloud.monitor.changes("launch_configuration", "lc-v1"))
        assert after == before + 1

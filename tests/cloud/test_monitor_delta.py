"""Delta-encoded monitor snapshots vs a full-copy reference.

The monitor stores per-tick deltas over the write log; the seed stored a
deep copy of the whole region every tick.  These tests run a scripted
upgrade-with-faults scenario — config drift, reverts, tombstones (deleted
AMI / key pair), instance churn — against *both* implementations at the
exact same crawl instants and assert every answer the monitor gives
(``at``/``view_at``, ``resource_timeline``, full materialized maps) is
byte-identical (``json.dumps``) to the full-copy reference, including
across retention trimming and delta-chain rebasing.
"""

import copy
import json
import types

import pytest

from repro.cloud.monitor import REBASE_INTERVAL, CloudMonitor
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

    def timeline(self, kind: str, identifier: str, window: list[float]):
        """Deduplicated (time, view) pairs over the retained tick times."""
        result = []
        previous = None
        seen_any = False
        for taken_at, region in self.ticks:
            if taken_at not in window:
                continue
            view = region.get(kind, {}).get(identifier)
            if not seen_any or view != previous:
                result.append((taken_at, view))
                previous = view
                seen_any = True
        return result


@pytest.fixture
def scripted_run():
    """Upgrade-with-faults run recorded by both monitor implementations."""
    cloud = SimulatedCloud(seed=7, monitor_interval=5.0)
    cloud.monitor.retention = 40  # force trimming well within the run
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
    # Long quiet tail: retention trims and delta chains rebase.
    engine.run(until=5.0 * (cloud.monitor.retention + 3 * REBASE_INTERVAL) + 300.0)
    return cloud, reference


def all_keys(reference):
    keys = set()
    for _, region in reference.ticks:
        for kind, by_kind in region.items():
            keys.update((kind, identifier) for identifier in by_kind)
    return sorted(keys)


class TestDeltaEquivalence:
    def test_run_trimmed_and_rebased(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        assert len(monitor.snapshots) == monitor.retention
        assert len(reference.ticks) > monitor.retention  # trimming happened
        assert any(s.depth > 0 for s in monitor.snapshots)  # deltas in play
        assert any(
            s._resources is not None for s in monitor.snapshots[1:]
        )  # rebasing happened

    def test_view_at_every_tick_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        for when in monitor._times:
            for kind, identifier in all_keys(reference):
                assert dumps(monitor.view_at(when, kind, identifier)) == dumps(
                    reference.at(when, kind, identifier)
                ), (when, kind, identifier)

    def test_view_at_between_ticks_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        for when in monitor._times:
            off_tick = when + 1.7
            for kind, identifier in all_keys(reference):
                assert dumps(monitor.view_at(off_tick, kind, identifier)) == dumps(
                    reference.at(off_tick, kind, identifier)
                )

    def test_materialized_maps_match_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        by_time = dict(reference.ticks)
        for index in (0, len(monitor.snapshots) // 2, -1):
            snapshot = monitor.snapshots[index]
            assert dumps(snapshot.resources) == dumps(by_time[snapshot.taken_at])

    def test_resource_timeline_matches_reference(self, scripted_run):
        cloud, reference = scripted_run
        monitor = cloud.monitor
        window = list(monitor._times)
        for kind, identifier in all_keys(reference):
            assert dumps(monitor.resource_timeline(kind, identifier)) == dumps(
                reference.timeline(kind, identifier, window)
            ), (kind, identifier)

    def test_quiet_ticks_reuse_everything(self, scripted_run):
        cloud, _ = scripted_run
        counters = cloud.state.data_plane_counters
        assert counters["cloud.monitor.reused"] > counters["cloud.monitor.refreshed"]


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

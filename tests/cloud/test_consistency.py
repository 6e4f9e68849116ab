"""Tests for eventual consistency and CloudTrail delay."""

import pytest

from repro.cloud.consistency import MAX_LAG, ConsistencyModel, EventuallyConsistentView
from repro.cloud.cloudtrail import MAX_DELAY, CloudTrail
from repro.sim.clock import SimClock
from repro.cloud.resources import AmiImage
from repro.cloud.state import CloudState


class TestConsistencyModel:
    def test_zero_lag_is_strong_consistency(self):
        model = ConsistencyModel(mean_lag=0)
        assert model.sample_lag() == 0.0

    def test_lag_bounded_by_max(self):
        model = ConsistencyModel(mean_lag=10.0, seed=1)
        lags = [model.sample_lag() for _ in range(500)]
        assert max(lags) == MAX_LAG

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyModel(mean_lag=-1)


class TestEventuallyConsistentView:
    def _setup(self, mean_lag):
        clock = SimClock()
        state = CloudState()
        view = EventuallyConsistentView(state, clock, ConsistencyModel(mean_lag=mean_lag, seed=3))
        return clock, state, view

    def test_strong_read_sees_write_immediately(self):
        clock, state, view = self._setup(mean_lag=10.0)
        state.put("ami", "ami-1", AmiImage("ami-1", "app", "v1"), now=0.0)
        clock.advance_to(0.1)
        assert view.read_consistent("ami", "ami-1")["Version"] == "v1"

    def test_stale_read_can_miss_recent_write(self):
        clock, state, view = self._setup(mean_lag=10.0)
        state.put("ami", "ami-1", AmiImage("ami-1", "app", "v1"), now=100.0)
        clock.advance_to(100.5)
        misses = sum(1 for _ in range(200) if view.read("ami", "ami-1") is None)
        assert misses > 0, "a read 0.5s after a write should sometimes be stale"

    def test_old_writes_always_visible(self):
        clock, state, view = self._setup(mean_lag=2.0)
        state.put("ami", "ami-1", AmiImage("ami-1", "app", "v1"), now=0.0)
        clock.advance_to(1000.0)  # far beyond max lag
        assert all(view.read("ami", "ami-1") is not None for _ in range(100))


class TestCloudTrail:
    def test_records_invisible_until_delivered(self):
        clock = SimClock()
        trail = CloudTrail(clock, seed=1)
        trail.record("TerminateInstances", "alice", {"InstanceId": "i-1"})
        assert trail.lookup_events() == []
        assert trail.undelivered_count() == 1

    def test_records_visible_after_max_delay(self):
        clock = SimClock()
        trail = CloudTrail(clock, seed=1)
        trail.record("TerminateInstances", "alice", {"InstanceId": "i-1"})
        clock.advance_to(MAX_DELAY + 1.0)
        events = trail.lookup_events()
        assert len(events) == 1
        assert events[0].principal == "alice"
        assert trail.undelivered_count() == 0

    def test_filters(self):
        clock = SimClock()
        trail = CloudTrail(clock, seed=1)
        trail.record("TerminateInstances", "alice", {})
        trail.record("RunInstances", "bob", {})
        clock.advance_to(MAX_DELAY)
        assert len(trail.lookup_events(event_name="TerminateInstances")) == 1
        assert len(trail.lookup_events(principal="bob")) == 1
        assert trail.lookup_events(start=0.5) == []


class TestMonitor:
    def test_snapshot_and_current(self, provisioned_cloud):
        monitor = provisioned_cloud.monitor
        view = monitor.at(provisioned_cloud.engine.now, "auto_scaling_group", "asg-dsn")
        assert view is not None
        assert view["DesiredCapacity"] == 4

    def test_at_returns_historical_view(self, provisioned_cloud):
        monitor = provisioned_cloud.monitor
        early = monitor.ticks[0]
        assert monitor.at(early, "auto_scaling_group", "asg-dsn") is not None
        assert monitor.at(early - 1, "auto_scaling_group", "asg-dsn") is None

    def test_changes_collapse_identical_views(self, provisioned_cloud):
        monitor = provisioned_cloud.monitor
        changes = monitor.changes("load_balancer", "elb-dsn")
        # Far fewer distinct views than crawls made.
        assert 1 <= len(changes) <= len(monitor.ticks)

    def test_changes_detects_mutation(self, provisioned_cloud):
        cloud = provisioned_cloud
        before = len(cloud.monitor.changes("launch_configuration", "lc-v1"))
        # Mutate the way every real path does: in-place edit + recorded
        # write (the monitor crawls the write log, not live objects).
        lc = cloud.state.get("launch_configuration", "lc-v1")
        lc.instance_type = "m1.xlarge"
        cloud.state.record_write("launch_configuration", "lc-v1", cloud.engine.now)
        cloud.engine.run(until=cloud.engine.now + 60)  # let the crawler see it
        after = len(cloud.monitor.changes("launch_configuration", "lc-v1"))
        assert after == before + 1

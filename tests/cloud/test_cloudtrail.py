"""Tests for CloudTrail's delivery delay."""

from repro.cloud.cloudtrail import MAX_DELAY, CloudTrail
from repro.sim.clock import SimClock


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

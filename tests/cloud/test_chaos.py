"""Tests for the API-plane chaos layer (`repro.cloud.chaos`)."""

import contextlib

import pytest

from repro.cloud.chaos import (
    CHAOS_LEVELS,
    CHAOS_PROFILES,
    BlackholedCall,
    ChaosController,
    ChaosProfile,
    ErrorStorm,
    get_profile,
    service_of,
)
from repro.cloud.errors import ServiceUnavailable


class TestProfiles:
    def test_named_levels_resolve(self):
        for level in CHAOS_LEVELS:
            profile = get_profile(level)
            assert profile.name == level

    def test_none_is_calm(self):
        calm = get_profile(None)
        assert calm is get_profile("none")
        assert (calm.error_rate, calm.blackhole_rate, calm.latency_multiplier) == (0.0, 0.0, 1.0)
        assert calm.storms == ()

    def test_every_other_level_can_fail_every_call(self):
        """A base error rate above 0: these levels draw on every call."""
        for level in CHAOS_LEVELS[1:]:
            assert get_profile(level).error_rate > 0

    def test_only_names_resolve(self):
        """A profile is resolved once, from its name; an object is not a name."""
        with pytest.raises(ValueError, match="unknown chaos profile"):
            get_profile(ChaosProfile(name="custom", error_rate=0.5))

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            get_profile("apocalyptic")

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ChaosProfile(error_rate=1.5)
        with pytest.raises(ValueError):
            ChaosProfile(blackhole_rate=-0.1)

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            ChaosProfile(latency_multiplier=0.5)

    def test_levels_are_ordered_none_to_severe(self):
        rates = [CHAOS_PROFILES[level].error_rate for level in CHAOS_LEVELS]
        assert rates == sorted(rates)


class TestServiceTaxonomy:
    @pytest.mark.parametrize(
        "method,service",
        [
            ("describe_load_balancer", "elb"),
            ("describe_instance_health", "elb"),
            ("describe_auto_scaling_group", "autoscaling"),
            ("describe_launch_configuration", "autoscaling"),
            ("set_desired_capacity", "autoscaling"),
            ("describe_instance", "ec2"),
            ("describe_image", "ec2"),
        ],
    )
    def test_service_of(self, method, service):
        assert service_of(method) == service


class TestErrorStorm:
    def test_active_window_is_half_open(self):
        storm = ErrorStorm(start=100.0, duration=50.0, intensity=0.9)
        assert not storm.active(99.9)
        assert storm.active(100.0)
        assert storm.active(149.9)
        assert not storm.active(150.0)

    def test_storm_raises_effective_error_rate(self):
        profile = ChaosProfile(
            error_rate=0.05, storms=(ErrorStorm(start=10.0, duration=5.0, intensity=0.8),)
        )
        assert profile.rates_for("ec2", 5.0) == (0.05, 0.0)
        assert profile.rates_for("ec2", 12.0) == (0.8, 0.0)

    def test_storm_service_targeting(self):
        storm = ErrorStorm(start=0.0, duration=100.0, intensity=0.9, services=("elb",))
        profile = ChaosProfile(error_rate=0.01, storms=(storm,))
        assert profile.rates_for("elb", 50.0)[0] == 0.9
        assert profile.rates_for("ec2", 50.0)[0] == 0.01


class TestController:
    def test_no_chaos_never_raises_or_draws(self, engine):
        controller = ChaosController(engine, get_profile("none"), seed=1)
        for _ in range(100):
            controller.before_call("describe_instance")
        assert controller.counters == {"calls_seen": 0, "errors": 0, "blackholes": 0}

    def test_only_a_call_that_can_fail_is_counted(self, engine):
        """``calls_seen`` counts draws: outside its storm, a storm-only
        profile has nothing to draw for."""
        storm = ErrorStorm(start=10.0, duration=5.0, intensity=0.5)
        controller = ChaosController(engine, ChaosProfile(storms=(storm,)), seed=1)
        controller.before_call("describe_instance")
        assert controller.counters["calls_seen"] == 0
        engine.run(until=12.0)
        with contextlib.suppress(ServiceUnavailable):
            controller.before_call("describe_instance")
        assert controller.counters["calls_seen"] == 1

    def test_severe_chaos_injects_errors_and_blackholes(self, engine):
        controller = ChaosController(engine, get_profile("severe"), seed=7)
        errors = blackholes = 0
        for _ in range(500):
            try:
                controller.before_call("describe_instance")
            except BlackholedCall:
                blackholes += 1
            except ServiceUnavailable as exc:
                assert exc.chaos is True
                errors += 1
        assert errors > 0
        assert blackholes > 0
        assert controller.counters["errors"] == errors
        assert controller.counters["blackholes"] == blackholes

    def test_same_seed_same_schedule(self, engine):
        def schedule(seed):
            controller = ChaosController(engine, get_profile("severe"), seed=seed)
            kinds = []
            for _ in range(200):
                try:
                    controller.before_call("describe_instance")
                    kinds.append("ok")
                except BlackholedCall:
                    kinds.append("blackhole")
                except ServiceUnavailable:
                    kinds.append("error")
            return kinds

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_events_are_recorded(self, engine):
        """Every injected fault is tallied in ``counters`` by kind."""
        controller = ChaosController(engine, get_profile("severe"), seed=3)
        raised = []
        for _ in range(100):
            try:
                controller.before_call("describe_image")
            except BlackholedCall:
                raised.append("blackholes")
            except ServiceUnavailable:
                raised.append("errors")
        assert controller.counters == {
            "calls_seen": 100,
            "errors": raised.count("errors"),
            "blackholes": raised.count("blackholes"),
        }
        assert raised

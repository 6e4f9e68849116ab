"""Tests for the API-plane chaos layer (`repro.cloud.chaos`)."""

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
from repro.sim.latency import ConstantLatency


class TestProfiles:
    def test_named_levels_resolve(self):
        for level in CHAOS_LEVELS:
            profile = get_profile(level)
            assert profile.name == level

    def test_none_is_disabled(self):
        assert not get_profile(None).enabled
        assert not get_profile("none").enabled

    def test_every_other_level_is_enabled(self):
        for level in CHAOS_LEVELS[1:]:
            assert get_profile(level).enabled

    def test_profile_object_passes_through(self):
        profile = ChaosProfile(name="custom", error_rate=0.5)
        assert get_profile(profile) is profile

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


class RecordingApi:
    """API double: records calls, always succeeds."""

    def __init__(self):
        self.calls = []
        self.principal = "test"

    def describe_instance(self, instance_id):
        self.calls.append(("describe_instance", instance_id))
        return {"InstanceId": instance_id}

    def _private(self):
        return "private"


class TestController:
    def test_no_chaos_never_raises(self, engine):
        controller = ChaosController(engine, "none", seed=1)
        for _ in range(100):
            controller.before_call("describe_instance")
        assert controller.counters == {"calls_seen": 100, "errors": 0, "blackholes": 0}

    def test_severe_chaos_injects_errors_and_blackholes(self, engine):
        controller = ChaosController(engine, "severe", seed=7)
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
            controller = ChaosController(engine, "severe", seed=seed)
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
        controller = ChaosController(engine, "severe", seed=3)
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


class TestApiProxy:
    def test_calls_pass_through_on_calm_plane(self, engine):
        api = RecordingApi()
        proxy = ChaosController(engine, "none", seed=1).wrap(api)
        assert proxy.describe_instance("i-1") == {"InstanceId": "i-1"}
        assert api.calls == [("describe_instance", "i-1")]

    def test_chaos_errors_raised_before_the_real_call(self, engine):
        api = RecordingApi()
        profile = ChaosProfile(name="always", error_rate=1.0)
        proxy = ChaosController(engine, profile, seed=1).wrap(api)
        with pytest.raises(ServiceUnavailable) as excinfo:
            proxy.describe_instance("i-1")
        assert excinfo.value.chaos is True
        assert api.calls == []  # the plane failed before reaching the service

    def test_blackhole_raised_synchronously(self, engine):
        api = RecordingApi()
        profile = ChaosProfile(name="void", blackhole_rate=1.0)
        proxy = ChaosController(engine, profile, seed=1).wrap(api)
        with pytest.raises(BlackholedCall):
            proxy.describe_instance("i-1")

    def test_plumbing_attrs_not_gated(self, engine):
        api = RecordingApi()
        profile = ChaosProfile(name="always", error_rate=1.0)
        proxy = ChaosController(engine, profile, seed=1).wrap(api)
        # Non-callables and private callables bypass the chaos gate.
        assert proxy.principal == "test"
        assert proxy._private() == "private"


class TestChaosLatency:
    def test_brownout_multiplies_samples(self, engine):
        profile = ChaosProfile(name="slow", latency_multiplier=6.0)
        controller = ChaosController(engine, profile, seed=1)
        wrapped = controller.wrap_latency(ConstantLatency(0.1))
        assert wrapped.sample() == pytest.approx(0.6)

    def test_percentile_reports_healthy_base(self, engine):
        from repro.sim.latency import LogNormalLatency

        base = LogNormalLatency(median=0.1, sigma=0.3)
        profile = ChaosProfile(name="slow", latency_multiplier=6.0)
        wrapped = ChaosController(engine, profile, seed=1).wrap_latency(base)
        # Timeout calibration must stay at the HEALTHY 95th percentile so
        # a brownout can actually blow through it.
        assert wrapped.percentile(0.95) == base.percentile(0.95)

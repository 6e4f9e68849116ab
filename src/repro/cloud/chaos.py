"""API-plane chaos: degrading the *control plane* itself.

The paper's consistent-API layer (§IV) exists because AWS's control plane
misbehaves — throttling, staleness, transient 500s, the Dec-2012 ELB
outage.  The 8 injected fault types of the campaign are *state* faults
(wrong AMI, deleted key pair, ...); this module injects the orthogonal
*API-plane* faults that stress the monitor itself:

- **error bursts** — per-call transient ``ServiceUnavailable`` with a
  configurable per-service probability;
- **error storms** — windows of time during which the error probability
  spikes (modelling a regional control-plane incident);
- **latency brownouts** — a multiplier on the API latency model;
- **blackholes** — calls that hang until the caller's deadline instead of
  returning at all;
- **widened eventual-consistency windows** — a multiplier on the mean
  replication lag.

All randomness is drawn from one seeded stream per controller, so a
campaign run's chaos schedule is a pure function of its spec seed and the
campaign stays bit-for-bit deterministic at any worker count.

The degradation contract for downstream consumers: a chaotic API plane may
make diagnosis *inconclusive* — never wrong, and never a crashed run.
Chaos-injected errors carry ``chaos=True`` so the consistent-API client
can label the resulting failures *degraded* and the diagnosis engine can
record which verdicts were lost to API health rather than decided on
evidence.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t

from repro.cloud.errors import CloudError, ServiceUnavailable


class BlackholedCall(CloudError):
    """A call the degraded API plane will never answer.

    Raised *synchronously* by the chaos proxy as a signal; the
    consistent-API client translates it into "hang until my deadline,
    then time out".  Not retryable — retrying a blackhole immediately
    would defeat the hang semantics.
    """

    code = "RequestTimeout"
    retryable = False
    #: Marks the failure as injected by the chaos layer (vs a real answer).
    chaos = True


#: Coarse service taxonomy for per-service knobs, mirroring how a real
#: control-plane incident hits one service (ELB in Dec-2012) while the
#: others stay healthy.
ELB_METHODS_PREFIXES = ("describe_instance_health",)


def service_of(method: str) -> str:
    """Map an API method name to its owning service family."""
    if "load_balancer" in method or method in ELB_METHODS_PREFIXES:
        return "elb"
    if (
        "scaling" in method
        or "launch_configuration" in method
        or method in ("suspend_processes", "resume_processes", "set_desired_capacity")
    ):
        return "autoscaling"
    return "ec2"


@dataclasses.dataclass(frozen=True)
class ErrorStorm:
    """A time window of elevated error probability.

    ``services=None`` hits every service; otherwise only the named ones.
    During the storm the effective error rate is ``max(base, intensity)``.
    """

    start: float
    duration: float
    intensity: float
    services: tuple[str, ...] | None = None

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration

    def applies_to(self, service: str) -> bool:
        return self.services is None or service in self.services


@dataclasses.dataclass(frozen=True)
class ServiceChaos:
    """Per-service overrides of the profile-wide knobs."""

    error_rate: float | None = None
    blackhole_rate: float | None = None
    latency_multiplier: float | None = None


@dataclasses.dataclass(frozen=True)
class ChaosProfile:
    """One named level of API-plane degradation.

    All probabilities are per-call; multipliers of 1.0 are neutral.
    """

    name: str = "custom"
    #: Per-call probability of a transient ``ServiceUnavailable``.
    error_rate: float = 0.0
    #: Per-call probability the call hangs until the caller's deadline.
    blackhole_rate: float = 0.0
    #: Multiplier on every API latency sample (brownout).
    latency_multiplier: float = 1.0
    #: Multiplier on the mean eventual-consistency replication lag.
    consistency_lag_multiplier: float = 1.0
    #: Windows of spiked error probability.
    storms: tuple[ErrorStorm, ...] = ()
    #: Per-service overrides, keyed by ``service_of`` family.
    per_service: _t.Mapping[str, ServiceChaos] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        for knob in (self.error_rate, self.blackhole_rate):
            if not 0.0 <= knob <= 1.0:
                raise ValueError(f"chaos probabilities must be in [0, 1], got {knob}")
        if self.latency_multiplier < 1.0 or self.consistency_lag_multiplier < 1.0:
            raise ValueError("chaos multipliers must be >= 1.0 (chaos never speeds AWS up)")

    @property
    def enabled(self) -> bool:
        return (
            self.error_rate > 0
            or self.blackhole_rate > 0
            or self.latency_multiplier > 1.0
            or self.consistency_lag_multiplier > 1.0
            or bool(self.storms)
            or bool(self.per_service)
        )

    def rates_for(self, service: str, now: float) -> tuple[float, float]:
        """Effective (error_rate, blackhole_rate) for one service now."""
        override = self.per_service.get(service)
        error = self.error_rate if override is None or override.error_rate is None else override.error_rate
        blackhole = (
            self.blackhole_rate
            if override is None or override.blackhole_rate is None
            else override.blackhole_rate
        )
        for storm in self.storms:
            if storm.active(now) and storm.applies_to(service):
                error = max(error, storm.intensity)
        return error, blackhole

    def latency_multiplier_for(self, service: str) -> float:
        override = self.per_service.get(service)
        if override is not None and override.latency_multiplier is not None:
            return override.latency_multiplier
        return self.latency_multiplier


#: Named degradation levels, ordered none → severe.  The sweep
#: (:func:`repro.evaluation.sweeps.sweep_chaos`) walks these.
CHAOS_PROFILES: dict[str, ChaosProfile] = {
    "none": ChaosProfile(name="none"),
    "mild": ChaosProfile(
        name="mild",
        error_rate=0.02,
        latency_multiplier=1.5,
    ),
    "moderate": ChaosProfile(
        name="moderate",
        error_rate=0.08,
        blackhole_rate=0.004,
        latency_multiplier=3.0,
        consistency_lag_multiplier=2.0,
        storms=(ErrorStorm(start=180.0, duration=60.0, intensity=0.6),),
    ),
    "severe": ChaosProfile(
        name="severe",
        error_rate=0.20,
        blackhole_rate=0.02,
        latency_multiplier=6.0,
        consistency_lag_multiplier=4.0,
        storms=(
            ErrorStorm(start=120.0, duration=120.0, intensity=0.85),
            ErrorStorm(start=420.0, duration=90.0, intensity=0.7, services=("elb",)),
        ),
    ),
}

#: The sweep order (and the CLI's ``--chaos`` choices).
CHAOS_LEVELS = ("none", "mild", "moderate", "severe")


def get_profile(profile: ChaosProfile | str | None) -> ChaosProfile:
    """Resolve a profile object, a level name, or None (= no chaos)."""
    if profile is None:
        return CHAOS_PROFILES["none"]
    if isinstance(profile, ChaosProfile):
        return profile
    try:
        return CHAOS_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {profile!r}; known: {', '.join(CHAOS_PROFILES)}"
        ) from None


@dataclasses.dataclass
class ChaosEvent:
    """One injected API-plane fault (bookkeeping for reports/metrics)."""

    time: float
    method: str
    kind: str  # "error" | "blackhole"


class ChaosController:
    """Decides, per API call, whether and how to degrade it.

    One controller per testbed, seeded from the run spec; every decision
    consumes exactly one draw from its private RNG stream, so the chaos
    schedule depends only on the seed and the deterministic call order.
    """

    def __init__(self, engine, profile: ChaosProfile | str | None, seed: int = 0) -> None:
        self.engine = engine
        self.profile = get_profile(profile)
        self._rng = random.Random(seed)
        self.events: list[ChaosEvent] = []
        self.counters: dict[str, int] = {"calls_seen": 0, "errors": 0, "blackholes": 0}

    @property
    def enabled(self) -> bool:
        return self.profile.enabled

    # -- decision points -------------------------------------------------------

    def before_call(self, method: str) -> None:
        """Raise the chaos fault for this call, if one is drawn."""
        self.counters["calls_seen"] += 1
        service = service_of(method)
        error_rate, blackhole_rate = self.profile.rates_for(service, self.engine.now)
        if error_rate <= 0 and blackhole_rate <= 0:
            return
        # One draw per call keeps the schedule stable as knobs change.
        roll = self._rng.random()
        if roll < blackhole_rate:
            self.counters["blackholes"] += 1
            self.events.append(ChaosEvent(self.engine.now, method, "blackhole"))
            raise BlackholedCall(f"chaos: {method} blackholed")
        if roll < blackhole_rate + error_rate:
            self.counters["errors"] += 1
            self.events.append(ChaosEvent(self.engine.now, method, "error"))
            error = ServiceUnavailable(f"chaos: {method} temporarily unavailable")
            error.chaos = True
            raise error

    def latency_multiplier(self) -> float:
        return self.profile.latency_multiplier_for("ec2")

    # -- wrappers --------------------------------------------------------------

    def wrap(self, api) -> "ChaosApiProxy":
        """A degraded facade over a :class:`~repro.cloud.api.CloudAPI`."""
        return ChaosApiProxy(api, self)

    def wrap_latency(self, latency) -> "ChaosLatency":
        """A brownout-multiplied view of a latency model."""
        return ChaosLatency(latency, self)


class ChaosApiProxy:
    """Duck-typed ``CloudAPI`` whose calls pass through the chaos gate.

    Non-API attributes (``calls``, ``principal``, ...) pass through
    untouched, so the proxy is a drop-in replacement wherever a
    ``CloudAPI`` is expected.
    """

    def __init__(self, api, controller: ChaosController) -> None:
        self._api = api
        self._controller = controller

    def __getattr__(self, name: str):
        attr = getattr(self._api, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def degraded_call(*args, **kwargs):
            self._controller.before_call(name)
            return attr(*args, **kwargs)

        return degraded_call

    def __repr__(self) -> str:
        return f"ChaosApiProxy({self._api!r}, profile={self._controller.profile.name})"


class ChaosLatency:
    """Latency model view with the brownout multiplier applied.

    ``percentile``/``mean`` deliberately report the *healthy* base model:
    the paper calibrates timeouts at the 95th percentile of measured
    (healthy) latencies, and a brownout must be able to blow through that
    calibration — auto-scaling the timeout with the brownout would hide
    exactly the degradation we want to measure.
    """

    def __init__(self, base, controller: ChaosController) -> None:
        self.base = base
        self.controller = controller

    def sample(self) -> float:
        return self.base.sample() * self.controller.latency_multiplier()

    def mean(self) -> float:
        return self.base.mean()

    @property
    def percentile(self):
        return getattr(self.base, "percentile", None)

    def __repr__(self) -> str:
        return f"ChaosLatency({self.base!r} x{self.controller.latency_multiplier()})"

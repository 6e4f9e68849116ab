"""Custom diagnostic probes.

Fault-tree nodes whose evidence is not a simple assertion use these named
probes: inspecting scaling activities, the Edda-style monitor's history,
or CloudTrail.  Each probe is a simulation generator returning
``(verdict, evidence)`` with verdict one of ``confirmed`` / ``excluded`` /
``inconclusive``.

Probes receive the :class:`~repro.assertions.base.AssertionEnvironment`
(its ``state``, ``trail``, ``monitor`` and ``operation_api_calls`` filled
in by the POD service) and the instantiated test params.  ``params["since"]`` — the operation's
start time — bounds every historical query.
"""

from __future__ import annotations

import functools
import typing as _t

from repro.assertions.consistent_api import ConsistentCallError, is_degraded
from repro.cloud.errors import CloudError

CONFIRMED = "confirmed"
EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"

#: Simulated latency of one monitor/repository lookup (local cache, not a
#: full cloud API round trip).
MONITOR_LOOKUP_LATENCY = 0.025


class CustomTestRegistry:
    """Named probes: register / run."""

    def __init__(self) -> None:
        self._probes: dict[str, _t.Callable] = {}

    def register(self, name: str, probe: _t.Callable) -> None:
        if name in self._probes:
            raise ValueError(f"probe {name!r} already registered")
        self._probes[name] = probe

    def get(self, name: str) -> _t.Callable:
        if name not in self._probes:
            raise KeyError(f"no custom diagnostic test {name!r}")
        return self._probes[name]

    def names(self) -> list[str]:
        return sorted(self._probes)

    def run(self, name: str, env, params: dict) -> _t.Generator:
        """Generator: yields sim events, returns (verdict, evidence)."""
        return self.get(name)(env, params)


def _since(params: dict) -> float:
    value = params.get("since", 0.0)
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


def _api_failure(exc: Exception) -> dict:
    """Evidence for an API-failure inconclusive; flags chaos degradation."""
    evidence: dict = {"error": str(exc)}
    if is_degraded(exc):
        evidence["degraded"] = True
    return evidence


def probe_scaling_activities_failing(env, params: dict) -> _t.Generator:
    """Are the ASG's launch attempts failing since the operation began?"""
    asg_name = params.get("asg_name")
    if not asg_name or asg_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no asg name in context"}
    try:
        activities = yield from env.client.call(
            "describe_scaling_activities", asg_name, since=_since(params)
        )
    except (CloudError, ConsistentCallError) as exc:
        return INCONCLUSIVE, _api_failure(exc)
    failed = [a for a in activities if a.status == "Failed"]
    if failed:
        codes = sorted({a.error_code for a in failed if a.error_code})
        return CONFIRMED, {"failed_activities": len(failed), "error_codes": codes}
    return EXCLUDED, {"failed_activities": 0}


def probe_limit_exceeded_activity(env, params: dict) -> _t.Generator:
    """Did launches fail specifically on the account instance limit?"""
    asg_name = params.get("asg_name")
    if not asg_name or asg_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no asg name in context"}
    try:
        activities = yield from env.client.call(
            "describe_scaling_activities", asg_name, since=_since(params)
        )
    except (CloudError, ConsistentCallError) as exc:
        return INCONCLUSIVE, _api_failure(exc)
    hits = [a for a in activities if a.error_code == "InstanceLimitExceeded"]
    if hits:
        return CONFIRMED, {"occurrences": len(hits)}
    return EXCLUDED, {}


def probe_scale_in_occurred(env, params: dict) -> _t.Generator:
    """Did a concurrent scaling-in shrink the ASG during the operation?"""
    asg_name = params.get("asg_name")
    if not asg_name or asg_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no asg name in context"}
    try:
        activities = yield from env.client.call(
            "describe_scaling_activities", asg_name, since=_since(params)
        )
    except (CloudError, ConsistentCallError) as exc:
        return INCONCLUSIVE, _api_failure(exc)
    scale_ins = [
        a for a in activities if a.activity == "Terminate" and "scale-in" in a.description
    ]
    if scale_ins:
        return CONFIRMED, {
            "terminated": [a.instance_id for a in scale_ins if a.instance_id],
        }
    return EXCLUDED, {}


def probe_external_termination(env, params: dict) -> _t.Generator:
    """Was an ASG member terminated outside the ASG's own activities?

    Compares terminated instances (from region state, standing in for the
    Edda monitor's instance view) against the Terminate scaling
    activities; a terminated member with no matching activity was killed
    externally.
    """
    asg_name = params.get("asg_name")
    if not asg_name or asg_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no asg name in context"}
    state = env.state
    if state is None:
        return INCONCLUSIVE, {"reason": "no monitor data"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    since = _since(params)
    terminated = [
        i.instance_id
        for i in state.instances.values()
        if i.asg_name == asg_name
        and i.terminate_time is not None
        and i.terminate_time >= since
        and i.state.value in ("terminated", "shutting-down")
    ]
    try:
        activities = yield from env.client.call(
            "describe_scaling_activities", asg_name, since=since
        )
    except (CloudError, ConsistentCallError) as exc:
        return INCONCLUSIVE, _api_failure(exc)
    explained = {a.instance_id for a in activities if a.activity == "Terminate"}
    # Terminations driven by the operation itself arrive via the plain API,
    # which CloudTrail would attribute — the monitor equivalent is the
    # operation's own record of TerminateInstances calls.
    operation_calls = {
        c.params.get("InstanceId")
        for c in env.operation_api_calls
        if c.name in ("TerminateInstances", "TerminateInstanceInAutoScalingGroup")
    }
    unexplained = [i for i in terminated if i not in explained and i not in operation_calls]
    if unexplained:
        return CONFIRMED, {"instances": unexplained}
    return EXCLUDED, {}


def probe_cloudtrail_attribution(env, params: dict) -> _t.Generator:
    """Who terminated the instance? Usually unanswerable online.

    CloudTrail's delivery delay (up to 15 minutes) means the relevant
    records are almost never visible yet — reproducing the paper's
    'detected but cannot diagnose the root cause' outcome for random
    terminations.
    """
    trail = env.trail
    if trail is None:
        return INCONCLUSIVE, {"reason": "no CloudTrail access"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    records = trail.lookup_events(start=_since(params), event_name="TerminateInstances")
    if records:
        principals = sorted({r.principal for r in records})
        return CONFIRMED, {"principals": principals}
    return INCONCLUSIVE, {
        "reason": "no CloudTrail records delivered yet",
        "undelivered": trail.undelivered_count(),
    }


def probe_lc_config_flapped(env, params: dict) -> _t.Generator:
    """Did the launch configuration change and revert (transient fault)?

    Consults the Edda-style monitor's snapshot history.  A transient
    change shorter than the crawl interval is invisible — which is exactly
    how the paper's third wrong-diagnosis class happens.
    """
    lc_name = params.get("lc_name")
    if not lc_name or lc_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no launch configuration in context"}
    monitor = env.monitor
    if monitor is None:
        return INCONCLUSIVE, {"reason": "no monitor"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    changes = monitor.changes("launch_configuration", lc_name)
    views = [view for _t_, view in changes if view is not None]
    if len(views) >= 3 and views[-1] == views[-3]:
        return CONFIRMED, {"distinct_views": len(views)}
    return EXCLUDED, {"distinct_views": len(views)}


def probe_concurrent_lc_update(env, params: dict) -> _t.Generator:
    """Did someone else update the launch configuration mid-operation?

    Uses the configuration repository's write history (region state
    history here) — the paper: "configuration repositories ... may provide
    data on who changed the configuration, when, and why".
    """
    lc_name = params.get("lc_name")
    asg_name = params.get("asg_name")
    state = env.state
    if state is None:
        return INCONCLUSIVE, {"reason": "no configuration repository"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    if (not lc_name or lc_name.startswith("$")) and asg_name and not asg_name.startswith("$"):
        if state.exists("auto_scaling_group", asg_name):
            lc_name = state.get("auto_scaling_group", asg_name).launch_configuration_name
    if not lc_name or lc_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no launch configuration in context"}
    since = _since(params)
    history = state.history("launch_configuration", lc_name)
    # The operation itself created/installed the LC; only *later* writes
    # are concurrent modifications by someone else.
    created_at = min((t for t, view in history if view is not None), default=since)
    writes = [t for t, _view in history if t > max(since, created_at)]
    if len(writes) >= 1:
        return CONFIRMED, {"writes_since_start": len(writes)}
    return EXCLUDED, {"writes_since_start": 0}


def probe_desired_capacity_mismatch(env, params: dict) -> _t.Generator:
    """Does the ASG's desired capacity differ from the operation's N?"""
    asg_name = params.get("asg_name")
    expected = params.get("expected")
    if not asg_name or asg_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no asg name in context"}
    if expected is None or (isinstance(expected, str) and expected.startswith("$")):
        return INCONCLUSIVE, {"reason": "no expected capacity in context"}
    try:
        asg = yield from env.client.call("describe_auto_scaling_group", asg_name, consistent=True)
    except (CloudError, ConsistentCallError) as exc:
        return INCONCLUSIVE, _api_failure(exc)
    actual = asg["DesiredCapacity"]
    if int(actual) != int(expected):
        return CONFIRMED, {"expected": int(expected), "actual": int(actual)}
    return EXCLUDED, {"expected": int(expected), "actual": int(actual)}


def probe_instances_out_of_service(env, params: dict) -> _t.Generator:
    """Are registered ELB instances failing health checks?"""
    elb_name = params.get("elb_name")
    if not elb_name or elb_name.startswith("$"):
        return INCONCLUSIVE, {"reason": "no elb name in context"}
    try:
        health = yield from env.client.call("describe_instance_health", elb_name)
    except (CloudError, ConsistentCallError) as exc:
        return INCONCLUSIVE, _api_failure(exc)
    out = [h["InstanceId"] for h in health if h["State"] != "InService"]
    if out:
        return CONFIRMED, {"out_of_service": out}
    return EXCLUDED, {}


def build_standard_probes() -> CustomTestRegistry:
    """All probes the standard fault trees reference."""
    registry = CustomTestRegistry()
    registry.register("scaling-activities-failing", probe_scaling_activities_failing)
    registry.register("limit-exceeded-activity", probe_limit_exceeded_activity)
    registry.register("scale-in-occurred", probe_scale_in_occurred)
    registry.register("external-termination-occurred", probe_external_termination)
    registry.register("cloudtrail-attribution", probe_cloudtrail_attribution)
    registry.register("lc-config-flapped", probe_lc_config_flapped)
    registry.register("concurrent-lc-update", probe_concurrent_lc_update)
    registry.register("desired-capacity-mismatch", probe_desired_capacity_mismatch)
    registry.register("instances-out-of-service", probe_instances_out_of_service)
    return registry


@functools.lru_cache(maxsize=1)
def shared_standard_probes() -> CustomTestRegistry:
    """Process-wide warm copy of the standard probe registry.

    Probes are stateless generator functions; the registry is only read
    at diagnosis time, so one copy serves every run in a process.  Callers
    that want to register extra probes must build their own registry with
    :func:`build_standard_probes`.
    """
    return build_standard_probes()

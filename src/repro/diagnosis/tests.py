"""Custom diagnostic probes.

Fault-tree nodes whose evidence is not a simple assertion use these named
probes: inspecting scaling activities, the Edda-style monitor's history,
or CloudTrail.  A probe *observes*: it is a simulation generator returning
``(observed, evidence)`` — True / False when the condition it looks for
is / is not there, None when it could not look.  Seeing it confirms the
node's fault; what not seeing it means is the fault tree's to say
(``DiagnosticTest.when_not_observed``).

Probes receive the :class:`~repro.assertions.base.AssertionEnvironment`
(its ``state``, ``trail``, ``monitor`` and ``operation_api_calls`` filled
in by the POD service) and the instantiated test params, those declared
``requires`` at registration guaranteed present.  ``params["since"]`` — the
operation's start time — bounds every historical query.
"""

from __future__ import annotations

import functools
import typing as _t

from repro.assertions.consistent_api import ConsistentCallError, is_degraded
from repro.cloud.errors import CloudError

#: Simulated latency of one monitor/repository lookup (local cache, not a
#: full cloud API round trip).
MONITOR_LOOKUP_LATENCY = 0.025


class CustomTestRegistry:
    """Named probes: register / run."""

    def __init__(self) -> None:
        self._probes: dict[str, tuple[_t.Callable, tuple[str, ...]]] = {}

    def register(self, name: str, probe: _t.Callable, requires: tuple[str, ...] = ()) -> None:
        if name in self._probes:
            raise ValueError(f"probe {name!r} already registered")
        self._probes[name] = (probe, tuple(requires))

    def get(self, name: str) -> tuple[_t.Callable, tuple[str, ...]]:
        """The probe and the params it requires."""
        if name not in self._probes:
            raise KeyError(f"no custom diagnostic test {name!r}")
        return self._probes[name]

    def names(self) -> list[str]:
        return sorted(self._probes)

    def run(self, name: str, env, params: dict) -> _t.Generator:
        """Generator: yields sim events, returns (observed, evidence).

        The one place an unknown name, missing context or an API failure
        (its evidence flags chaos degradation) becomes "could not look".
        """
        try:
            probe, requires = self.get(name)
        except KeyError:
            return None, {"reason": f"unknown probe {name}"}
        missing = [key for key in requires if not params.get(key)]
        if missing:
            return None, {"reason": f"no {', '.join(missing)} in context"}
        try:
            return (yield from probe(env, params))
        except (CloudError, ConsistentCallError) as exc:
            evidence: dict = {"error": str(exc)}
            if is_degraded(exc):
                evidence["degraded"] = True
            return None, evidence


def _since(params: dict) -> float:
    value = params.get("since", 0.0)
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


def _scaling_activities(env, params: dict) -> _t.Generator:
    return (
        yield from env.client.call(
            "describe_scaling_activities", params["asg_name"], since=_since(params)
        )
    )


def probe_scaling_activities_failing(env, params: dict) -> _t.Generator:
    """Are the ASG's launch attempts failing since the operation began?"""
    activities = yield from _scaling_activities(env, params)
    failed = [a for a in activities if a.status == "Failed"]
    if failed:
        codes = sorted({a.error_code for a in failed if a.error_code})
        return True, {"failed_activities": len(failed), "error_codes": codes}
    return False, {"failed_activities": 0}


def probe_limit_exceeded_activity(env, params: dict) -> _t.Generator:
    """Did launches fail specifically on the account instance limit?"""
    activities = yield from _scaling_activities(env, params)
    hits = [a for a in activities if a.error_code == "InstanceLimitExceeded"]
    if hits:
        return True, {"occurrences": len(hits)}
    return False, {}


def probe_scale_in_occurred(env, params: dict) -> _t.Generator:
    """Did a concurrent scaling-in shrink the ASG during the operation?"""
    activities = yield from _scaling_activities(env, params)
    scale_ins = [
        a for a in activities if a.activity == "Terminate" and "scale-in" in a.description
    ]
    if scale_ins:
        return True, {"terminated": [a.instance_id for a in scale_ins if a.instance_id]}
    return False, {}


def probe_external_termination(env, params: dict) -> _t.Generator:
    """Was an ASG member terminated outside the ASG's own activities?

    Compares terminated instances (from region state, standing in for the
    Edda monitor's instance view) against the Terminate scaling
    activities; a terminated member with no matching activity was killed
    externally.
    """
    state = env.state
    if state is None:
        return None, {"reason": "no monitor data"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    since = _since(params)
    terminated = [
        i.instance_id
        for i in state.instances.values()
        if i.asg_name == params["asg_name"]
        and i.terminate_time is not None
        and i.terminate_time >= since
        and i.state.value in ("terminated", "shutting-down")
    ]
    activities = yield from _scaling_activities(env, params)
    explained = {a.instance_id for a in activities if a.activity == "Terminate"}
    # Terminations driven by the operation itself arrive via the plain API,
    # which CloudTrail would attribute — the monitor equivalent is the
    # operation's own record of TerminateInstances calls.
    operation_calls = {
        c.request_parameters.get("InstanceId")
        for c in env.operation_api_calls
        if c.event_name in ("TerminateInstances", "TerminateInstanceInAutoScalingGroup")
    }
    unexplained = [i for i in terminated if i not in explained and i not in operation_calls]
    if unexplained:
        return True, {"instances": unexplained}
    return False, {}


def probe_cloudtrail_attribution(env, params: dict) -> _t.Generator:
    """Who terminated the instance? Usually unanswerable online.

    CloudTrail's delivery delay (up to 15 minutes) means the relevant
    records are almost never visible yet — reproducing the paper's
    'detected but cannot diagnose the root cause' outcome for random
    terminations.
    """
    trail = env.trail
    if trail is None:
        return None, {"reason": "no CloudTrail access"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    records = trail.lookup_events(start=_since(params), event_name="TerminateInstances")
    if records:
        return True, {"principals": sorted({r.principal for r in records})}
    return False, {
        "reason": "no CloudTrail records delivered yet",
        "undelivered": trail.undelivered_count(),
    }


def probe_lc_config_flapped(env, params: dict) -> _t.Generator:
    """Did the launch configuration change and revert (transient fault)?

    Consults the Edda-style monitor's snapshot history.  A transient
    change shorter than the crawl interval is invisible — which is exactly
    how the paper's third wrong-diagnosis class happens.
    """
    monitor = env.monitor
    if monitor is None:
        return None, {"reason": "no monitor"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    changes = monitor.changes("launch_configuration", params["lc_name"])
    views = [view for _t_, view in changes if view is not None]
    flapped = len(views) >= 3 and views[-1] == views[-3]
    return flapped, {"distinct_views": len(views)}


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
        return None, {"reason": "no configuration repository"}
    yield env.engine.timeout(MONITOR_LOOKUP_LATENCY)
    if not lc_name and asg_name and state.exists("auto_scaling_group", asg_name):
        lc_name = state.get("auto_scaling_group", asg_name).launch_configuration_name
    if not lc_name:
        return None, {"reason": "no launch configuration in context"}
    since = _since(params)
    history = state.history("launch_configuration", lc_name)
    # The operation itself created/installed the LC; only *later* writes
    # are concurrent modifications by someone else.
    created_at = min((t for t, view in history if view is not None), default=since)
    writes = [t for t, _view in history if t > max(since, created_at)]
    return bool(writes), {"writes_since_start": len(writes)}


def probe_instances_out_of_service(env, params: dict) -> _t.Generator:
    """Are registered ELB instances failing health checks?"""
    health = yield from env.client.call("describe_instance_health", params["elb_name"])
    out = [h["InstanceId"] for h in health if h["State"] != "InService"]
    if out:
        return True, {"out_of_service": out}
    return False, {}


def build_standard_probes() -> CustomTestRegistry:
    """The probes the standard fault trees reference, each one walked by
    some tree (tests/diagnosis/test_probes.py checks both directions)."""
    registry = CustomTestRegistry()
    for name, probe, requires in (
        ("scaling-activities-failing", probe_scaling_activities_failing, ("asg_name",)),
        ("limit-exceeded-activity", probe_limit_exceeded_activity, ("asg_name",)),
        ("scale-in-occurred", probe_scale_in_occurred, ("asg_name",)),
        ("external-termination-occurred", probe_external_termination, ("asg_name",)),
        ("cloudtrail-attribution", probe_cloudtrail_attribution, ()),
        ("lc-config-flapped", probe_lc_config_flapped, ("lc_name",)),
        # Either of lc_name / asg_name will do: the probe falls back itself.
        ("concurrent-lc-update", probe_concurrent_lc_update, ()),
        ("instances-out-of-service", probe_instances_out_of_service, ("elb_name",)),
    ):
        registry.register(name, probe, requires=requires)
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

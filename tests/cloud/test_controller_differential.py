"""Differential test: the single-pass control plane against its oracle.

Two stacks — production ``CloudState`` + ``AsgController`` and the
pre-rewrite pair from ``reference_controller.py`` — are driven through the
same seeded script of API calls, fault injections, direct field writes
and clock advances.  After every step the scaling-activity stream, the
region write log, every resource's history and the data-plane counters
must be identical, and the simulator invariants of ROADMAP 4(a) must hold
on the production stack.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.api import CloudAPI
from repro.cloud.cloudtrail import CloudTrail
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.controller import AsgController
from repro.cloud.errors import CloudError
from repro.cloud.faults import FaultInjector
from repro.cloud.limits import AccountLimits
from repro.cloud.resources import InstanceState
from repro.cloud.state import CloudState
from repro.sim.engine import Engine
from repro.sim.latency import instance_boot_latency

from .reference_controller import ReferenceAsgController, ReferenceCloudState

ASGS = ("asg-a", "asg-b")
ELBS = ("elb-a", "elb-b")


class Stack:
    """One region with its controller, an API principal and an injector."""

    def __init__(self, state_cls, controller_cls, seed: int, limit: int) -> None:
        self.engine = Engine()
        self.state = state_cls(limits=AccountLimits(max_instances=limit))
        self.trail = CloudTrail(self.engine.clock, seed=seed + 1)
        self.controller = controller_cls(
            self.engine, self.state, boot_latency=instance_boot_latency(seed=seed + 2)
        )
        self.api = CloudAPI(
            self.engine, self.state, self.trail, "script", ConsistencyModel(seed=seed + 3)
        )
        self.injector = FaultInjector(self.engine, self.state, trail=self.trail)
        self.rng = random.Random(seed + 4)
        api = self.api
        api.register_image("app", "v1", image_id="ami-1")
        api.create_key_pair("key")
        api.create_security_group("sg")
        for elb in ELBS:
            api.create_load_balancer(elb)
        api.create_launch_configuration("lc", "ami-1", "m1.small", "key", ["sg"])
        api.create_auto_scaling_group("asg-a", "lc", 0, 12, 3, list(ELBS))
        api.create_auto_scaling_group("asg-b", "lc", 0, 12, 1, ["elb-b"])
        self.controller.start()

    # -- script steps ------------------------------------------------------

    def _member(self, asg_name: str, index: int):
        members = self.state.auto_scaling_groups[asg_name].instance_ids
        if not members:
            return None
        return self.state.instances.get(members[index % len(members)])

    def _revive(self, elb_name: str) -> None:
        for record in reversed(self.injector.injections):
            if record.fault_type == "ELB_UNAVAILABLE" and record.target == elb_name:
                self.injector.revert(record)
                return

    def apply(self, step: tuple) -> None:
        """Run one step; a CloudError is an outcome, not a failure."""
        try:
            self._apply(*step)
        except CloudError:
            pass

    def _apply(self, op: str, which: int, amount: int) -> None:
        state, api, injector = self.state, self.api, self.injector
        asg_name = ASGS[which % 2]
        if op == "advance":
            self.engine.run(until=self.engine.now + (1.0, 5.0, 12.5, 60.0)[amount % 4])
        elif op == "scale":
            api.set_desired_capacity(asg_name, amount % 9)
        elif op == "suspend":
            api.suspend_processes(asg_name, [("Launch", "Terminate")[amount % 2]])
        elif op == "resume":
            api.resume_processes(asg_name, [("Launch", "Terminate")[amount % 2]])
        elif op == "break":
            (
                lambda: injector.make_ami_unavailable("ami-1"),
                lambda: injector.make_key_pair_unavailable("key"),
                lambda: injector.make_security_group_unavailable("sg"),
                lambda: injector.make_elb_unavailable(ELBS[which % 2]),
                lambda: api.delete_load_balancer(ELBS[which % 2]),
                lambda: api.delete_launch_configuration("lc"),
            )[amount % 6]()
        elif op == "mend":
            (
                lambda: api.register_image("app", "v1", image_id="ami-1"),
                lambda: api.create_key_pair("key"),
                lambda: api.create_security_group("sg"),
                lambda: self._revive(ELBS[which % 2]),
                lambda: api.create_load_balancer(ELBS[which % 2]),
                lambda: api.create_launch_configuration("lc", "ami-1", "m1.small", "key", ["sg"]),
            )[amount % 6]()
        elif op == "sicken":
            # Direct field write, no record_write: the next tick must see it.
            instance = self._member(asg_name, amount)
            if instance is not None:
                instance.healthy = False
        elif op == "poke_state":
            instance = self._member(asg_name, amount)
            if instance is not None:
                instance.state = (InstanceState.TERMINATED, InstanceState.SHUTTING_DOWN)[which % 2]
        elif op == "chaos":
            injector.terminate_random_instance(asg_name, self.rng)
        elif op == "terminate":
            instance = self._member(asg_name, amount)
            if instance is not None:
                if which // 2 % 2:
                    api.terminate_instance(instance.instance_id)
                else:
                    api.terminate_instance_in_auto_scaling_group(
                        instance.instance_id, decrement_desired_capacity=bool(amount % 2)
                    )
        elif op == "forget":
            # The cloud forgets a terminated, deregistered instance: ASG
            # members may dangle until the next tick.
            registered = {i for e in state.load_balancers.values() for i in e.registered_instances}
            gone = sorted(
                iid
                for iid, i in state.instances.items()
                if i.state is InstanceState.TERMINATED and iid not in registered
            )
            if gone:
                del state.instances[gone[amount % len(gone)]]
        else:  # pragma: no cover - the strategy only draws the names above
            raise AssertionError(op)

    # -- observations ------------------------------------------------------

    def observed(self) -> dict:
        state = self.state
        return {
            "now": self.engine.now,
            "activities": [dataclasses.astuple(a) for a in state.scaling_activities],
            "controller_activities": [dataclasses.astuple(a) for a in self.controller.activities],
            "write_log": list(state._write_log),
            "history": {key: (list(t), list(v)) for key, (t, v) in state._history.items()},
            "counters": dict(state.data_plane_counters),
            "counter_order": list(state.data_plane_counters),
            "members": {n: list(a.instance_ids) for n, a in state.auto_scaling_groups.items()},
            "registered": {n: list(e.registered_instances) for n, e in state.load_balancers.items()},
            "instances": {i: (x.state, x.healthy, x.terminate_time) for i, x in state.instances.items()},
            "calls": [(c.time, c.name, c.error_code) for c in self.api.calls],
            "pending_events": len(self.engine._queue),
        }

    def check_invariants(self, pruned: bool) -> None:
        state = self.state
        assert state.active_instance_count() <= state.limits.max_instances
        for elb in state.load_balancers.values():
            for iid in elb.registered_instances:
                assert iid in state.instances, f"{elb.name} registers unknown {iid}"
        if pruned:
            for asg in state.auto_scaling_groups.values():
                for iid in asg.instance_ids:
                    assert iid in state.instances, f"{asg.name} keeps unknown member {iid}"
        for times, _views in state._history.values():
            assert times == sorted(times)


OPS = (
    "advance", "advance", "advance", "scale", "scale", "suspend", "resume", "break", "mend",
    "sicken", "poke_state", "chaos", "terminate", "forget",
)
steps = st.tuples(st.sampled_from(OPS), st.integers(0, 3), st.integers(0, 11))


def run_script(seed: int, limit: int, script: list[tuple]) -> None:
    new = Stack(CloudState, AsgController, seed, limit)
    old = Stack(ReferenceCloudState, ReferenceAsgController, seed, limit)
    for number, step in enumerate([("advance", 0, 3), *script, ("advance", 0, 3)]):
        new.apply(step)
        old.apply(step)
        got, want = new.observed(), old.observed()
        for key in want:
            assert got[key] == want[key], f"step {number} {step}: {key} diverged"
        # A tick has certainly run since the last edit after >= one interval.
        new.check_invariants(pruned=step[0] == "advance" and step[2] % 4 != 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(3, 10), st.lists(steps, min_size=4, max_size=40))
@example(
    7,
    4,
    [
        ("scale", 0, 8), ("advance", 0, 2), ("break", 0, 0), ("terminate", 0, 1),
        ("advance", 0, 2), ("mend", 0, 0), ("sicken", 0, 1), ("advance", 0, 1),
        ("chaos", 0, 0), ("forget", 0, 0), ("advance", 0, 3), ("scale", 0, 1),
        ("suspend", 0, 1), ("advance", 0, 2), ("resume", 0, 1), ("advance", 0, 3),
    ],
)
@example(
    11,
    10,
    [
        ("break", 0, 3), ("break", 1, 4), ("scale", 1, 5), ("advance", 0, 3),
        ("poke_state", 0, 0), ("poke_state", 1, 1), ("advance", 0, 1), ("mend", 0, 3),
        ("mend", 1, 4), ("terminate", 2, 0), ("advance", 0, 0), ("advance", 0, 3),
    ],
)
def test_controller_matches_reference(seed, limit, script):
    run_script(seed, limit, script)


def test_scripts_reach_every_reconcile_branch():
    """The generator above is only an oracle if its scripts get there."""
    stack = Stack(CloudState, AsgController, seed=3, limit=5)
    for step in [
        ("advance", 0, 3), ("scale", 0, 8), ("advance", 0, 3), ("sicken", 0, 0),
        ("advance", 0, 1), ("scale", 0, 1), ("advance", 0, 3), ("break", 0, 0),
        ("scale", 0, 3), ("advance", 0, 2), ("chaos", 0, 0), ("advance", 0, 2),
        ("forget", 0, 0), ("advance", 0, 3),
    ]:
        stack.apply(step)
    text = " | ".join(a.description for a in stack.state.scaling_activities)
    assert "InstanceLimitExceeded" in {a.error_code for a in stack.state.scaling_activities}
    assert "InvalidAMIID.NotFound" in {a.error_code for a in stack.state.scaling_activities}
    assert "(unhealthy)" in text and "(scale-in)" in text

"""A state machine over ``repro.cloud``, checked against what the cloud must do.

Hypothesis drives one ``SimulatedCloud`` through API creates, deletes and
terminations, scaling, the eight fault injections and their reverts,
chaos terminations, writes outside the API, API-plane chaos and clock
advances.  After every step the machine checks invariants stated against
references it builds itself -- a deep copy of the version each write made
the registry's, the describe of each, the full-copy monitor -- never
against an older build of the code.  A ``CloudError`` is an outcome, not a failure.
"""

import copy
import random
import types

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cloud.chaos import CHAOS_LEVELS, ChaosController, get_profile
from repro.cloud.controller import ELB_REGISTER_DELAY
from repro.cloud.errors import CloudError
from repro.cloud.limits import AccountLimits
from repro.cloud.provider import SimulatedCloud
from repro.cloud.resources import InstanceState
from repro.evaluation.faults import FAULT_TYPES, FAULTS, REVERTIBLE

from .history import monitor_at, plain
from .test_freeze import frozen_throughout
from .test_monitor_delta import FullCopyReference

ELBS = ("elb-a", "elb-b")
TERMINATED = InstanceState.TERMINATED
#: An instance's state only ever moves forward along this list.
LIFECYCLE = list(InstanceState)
#: (method, *args) on the script's API: a create per resource, and the
#: deletes recovery's compensation calls.
RESOURCE_CALLS = (
    ("register_image", "app", "v1", "ami-1"),
    ("create_key_pair", "key"),
    ("delete_key_pair", "key"),
    ("create_security_group", "sg"),
    ("delete_security_group", "sg"),
    ("create_launch_configuration", "lc", "ami-1", "m1.small", "key", ["sg"]),
    *(("create_load_balancer", elb) for elb in ELBS),
)
#: Writes outside the API, controller and injector: the next tick must see them.
DIRECT_WRITES = (("healthy", False), ("state", InstanceState.SHUTTING_DOWN), ("state", TERMINATED))
GROUP, MEMBER = st.integers(0, 2), st.integers(0, 11)


def described(version):
    """A captured version's describe (None: absent)."""
    return None if version is None else version.describe()


def scan(entries, when):
    """What ``view_at`` must answer: the last capture at or before ``when``."""
    return described(next((version for at, version in reversed(entries) if at <= when), None))


class CloudMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 10_000), limit=st.integers(3, 10))
    def setup(self, seed, limit):
        self.cloud = cloud = SimulatedCloud(seed=seed, limits=AccountLimits(max_instances=limit))
        self.state, self.engine = state, engine = cloud.state, cloud.engine
        self.seed, self.limit, self.rng = seed, limit, random.Random(seed)
        self.captured = {}  # (kind, id) -> [(time, deep copy of the version or None)]
        self.unchecked = {}  # (kind, id) -> its first capture not yet checked
        self.handed_out = []  # (view, deep copy when handed out)
        self.touched = set()  # instance ids a direct-write rule touched
        self.violations = []
        self.injections = []  # (fault type, its injection record)
        self.dirty = True  # edited since the last reconcile pass
        self.in_reconcile = False
        self.reference, self.crawls_checked = FullCopyReference(state), 0

        put, write, delete = state.put, state.write, state.delete
        reconcile, crawl = cloud.controller.reconcile, cloud.monitor.take_snapshot

        def capturing_put(kind, identifier, resource, now):
            view = put(kind, identifier, resource, now)
            self._capture(kind, identifier, now, resource)
            return view

        def capturing_write(kind, identifier, now, **changes):
            view = write(kind, identifier, now, **changes)
            self._capture(kind, identifier, now, state.get(kind, identifier))
            return view

        def capturing_delete(kind, identifier, now):
            delete(kind, identifier, now)
            self._capture(kind, identifier, now, None)

        def checked_reconcile():
            start = len(state.scaling_activities)
            self.in_reconcile = True
            reconcile()
            self.in_reconcile = self.dirty = False
            self._check_pass(state.scaling_activities[start:])

        def recorded_crawl():
            self.reference.record(engine.now)
            crawl()

        state.put, state.write, state.delete = capturing_put, capturing_write, capturing_delete
        cloud.controller.reconcile = checked_reconcile
        cloud.monitor.take_snapshot = recorded_crawl

        self.api = api = cloud.api("script")
        self.chaos = ChaosController(engine, get_profile(None))
        api.register_image("app", "v1", image_id="ami-1")
        api.register_image("app", "v2", image_id="ami-2")
        api.create_key_pair("key")
        api.create_security_group("sg")
        for elb in ELBS:
            api.create_load_balancer(elb)
        api.create_launch_configuration("lc", "ami-1", "m1.small", "key", ["sg"])
        api.create_auto_scaling_group("asg-a", "lc", 0, 12, 3, list(ELBS))
        api.create_auto_scaling_group("asg-b", "lc", 0, 12, 1, ["elb-b"])
        cloud.start()
        engine.run(until=240.0)  # every rule starts from a booted fleet

    # -- what the hooks see --------------------------------------------------

    def _capture(self, kind, identifier, now, version):
        key = (kind, identifier)
        entries = self.captured.setdefault(key, [])
        if self.in_reconcile and entries and entries[-1][1] == version:
            self.violations.append(f"a reconcile pass rewrote unchanged {kind} {identifier}")
        entries.append((now, copy.deepcopy(version)))
        self.unchecked.setdefault(key, len(entries) - 1)

    def _check_pass(self, activities):
        """A reconcile pass never leaves a gap silently, launches only from
        resources that exist, and scales in the oldest members first."""
        state, now = self.state, self.engine.now
        tried = {
            a.asg_name for a in activities
            if a.activity == "Launch" and a.status in ("InProgress", "Failed") and a.time == now
        }
        for asg in state.auto_scaling_groups.values():
            short = len(asg.instance_ids) < asg.desired_capacity
            if short and asg.name not in tried:
                self.violations.append(f"{asg.name} below desired capacity at {now}, silently")
        for activity in activities:
            if activity.status == "InProgress":
                instance = state.instances[activity.instance_id]
                needs = [("ami", instance.image_id), ("key_pair", instance.key_name)]
                needs += [("security_group", group) for group in instance.security_groups]
                if not all(state.exists(*need) for need in needs):
                    self.violations.append(f"{activity.instance_id} launched without its resources")
            elif "(scale-in)" in activity.description:
                victim = state.instances[activity.instance_id].launch_time
                members = state.auto_scaling_groups[activity.asg_name].instance_ids
                if any(state.instances[iid].launch_time < victim for iid in members):
                    self.violations.append(f"scale-in spared a member older than {activity.instance_id}")

    # -- rules -----------------------------------------------------------------

    def _edit(self, action, method=None):
        """Run one edit; an API ``method`` first takes the plane's chaos
        draw, as the consistent client makes it before each attempt."""
        self.dirty = True
        try:
            if method is not None:
                self.chaos.before_call(method)
            action()
        except CloudError:
            pass

    def _asg(self, which):
        names = sorted(self.state.auto_scaling_groups)
        return names[which % len(names)]

    def _member(self, which, index):
        members = self.state.auto_scaling_groups[self._asg(which)].instance_ids
        return self.state.instances[members[index % len(members)]] if members else None

    @rule(seconds=st.sampled_from([1.0, 5.0, 12.5, 60.0]))
    def advance(self, seconds):
        self.engine.run(until=self.engine.now + seconds)

    @rule(kill=st.booleans())
    def until_boot(self, kill):
        """Step to the instant the next instance boots; with ``kill``, chaos
        terminates it there, inside its window before ELB registration."""
        engine, log = self.engine, self.state.scaling_activities
        start, horizon, booted = len(log), engine.now + 120.0, []
        while not booted and engine.peek() <= horizon:
            engine.step()
            booted = [a for a in log[start:] if a.activity == "Launch" and a.status == "Successful"]
        if kill and booted:
            iid, asg_name = booted[0].instance_id, booted[0].asg_name
            pick = types.SimpleNamespace(choice=lambda running: next(i for i in running if i.instance_id == iid))
            self._edit(lambda: self.cloud.injector.terminate_random_instance(asg_name, pick))

    @rule(which=GROUP, capacity=st.integers(0, 8))
    def scale(self, which, capacity):
        self._edit(
            lambda: self.api.set_desired_capacity(self._asg(which), capacity), "set_desired_capacity"
        )

    @rule()
    def pressure(self):
        """A second team's group that wants the whole account limit."""
        self._edit(
            lambda: self.api.create_auto_scaling_group("asg-rival", "lc", 0, 12, self.limit),
            "create_auto_scaling_group",
        )

    @rule(call=st.sampled_from(RESOURCE_CALLS))
    def create_or_delete(self, call):
        method, *args = call
        self._edit(lambda: getattr(self.api, method)(*args), method)

    @rule(which=GROUP, index=MEMBER, how=st.sampled_from(["instance", "group", "group-decrement"]))
    def terminate(self, which, index, how):
        instance = self._member(which, index)
        if instance is None:
            return
        api, iid = self.api, instance.instance_id
        if how == "instance":
            self._edit(lambda: api.terminate_instance(iid), "terminate_instance")
        else:
            decrement = how == "group-decrement"
            self._edit(
                lambda: api.terminate_instance_in_auto_scaling_group(iid, decrement),
                "terminate_instance_in_auto_scaling_group",
            )

    @rule(which=GROUP)
    def chaos_terminate(self, which):
        injector = self.cloud.injector
        self._edit(lambda: injector.terminate_random_instance(self._asg(which), self.rng))

    @rule(fault=st.sampled_from(FAULT_TYPES), elb=st.sampled_from(ELBS))
    def inject(self, fault, elb):
        """One of the paper's eight fault types, on the script's names."""
        stack = types.SimpleNamespace(
            lc_v2="lc", ami_v2="ami-1", key_name="key", security_group="sg", elb_name=elb
        )
        self._edit(lambda: self.injections.append((fault, FAULTS[fault].apply(self.cloud, stack))))

    @rule(index=st.integers(0, 8))
    def revert(self, index):
        injector = self.cloud.injector
        open_ = [
            r for fault, r in self.injections if fault in REVERTIBLE and r.reverted_at is None
        ]
        if open_:
            self._edit(lambda: injector.revert(open_[index % len(open_)]))

    @rule(which=GROUP, index=MEMBER, write=st.sampled_from(DIRECT_WRITES))
    def direct_write(self, which, index, write):
        """Health is what the ELB sees of a running instance."""
        instance, (field, value) = self._member(which, index), write
        if instance is not None and (field == "state" or instance.state is InstanceState.RUNNING):
            self.dirty = True
            self.touched.add(instance.instance_id)
            self.state.write("instance", instance.instance_id, self.engine.now, **{field: value})

    @rule(level=st.sampled_from(CHAOS_LEVELS))
    def chaos_level(self, level):
        self.chaos = ChaosController(self.engine, get_profile(level), seed=self.seed)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def holds(self):
        assert not self.violations, self.violations
        self.check_members()
        self.check_registrations()
        assert self.state.active_instance_count() <= self.state.limits.max_instances
        self.check_history()
        self.check_latest_views()
        self.check_monitor()

    def check_members(self):
        """Once a tick has run since the last edit, every ASG member is a
        live pending or healthy running instance."""
        if self.dirty:
            return
        for asg in self.state.auto_scaling_groups.values():
            for iid in asg.instance_ids:
                instance = self.state.instances[iid]
                assert instance.state is InstanceState.PENDING or (
                    instance.state is InstanceState.RUNNING and instance.healthy
                ), (asg.name, iid, instance.state, instance.healthy)

    def check_registrations(self):
        """An ELB registers existing instances only, and never a terminated one."""
        for elb in self.state.load_balancers.values():
            for iid in elb.registered_instances:
                assert iid in self.state.instances, (elb.name, iid)
                if iid not in self.touched:
                    assert self.state.instances[iid].state is not TERMINATED, (elb.name, iid)

    def check_history(self):
        """History times are monotone; every new entry is the describe of
        its captured version, frozen all the way down; ``view_at`` answers
        what a linear scan over the captured copies answers; a view once
        handed out never changes; an untouched instance's state only moves
        forward; an unavailable ELB registers nothing."""
        for view, copied in self.handed_out:
            assert view == copied
        now = self.engine.now
        for (kind, identifier), first in self.unchecked.items():
            entries = self.captured[(kind, identifier)]
            history = self.state.history(kind, identifier)
            times = [at for at, _ in history]
            assert times == sorted(times) == [at for at, _ in entries]
            for index in range(first, len(history)):
                view, capture = history[index][1], entries[index][1]
                assert view == described(capture), (kind, identifier, index)
                assert frozen_throughout(view), (kind, identifier, index)
            new_times = [at for at, _ in entries[first:]]
            for at in {now, *new_times, *(at - 0.25 for at in new_times)}:
                view = self.state.view_at(kind, identifier, at)
                assert view == scan(entries, at), (kind, identifier, at)
                self.handed_out.append((view, plain(view)))
            if kind == "instance" and identifier not in self.touched:
                ranks = [LIFECYCLE.index(v.state) for _, v in entries if v is not None]
                assert ranks == sorted(ranks), (identifier, ranks)
            if kind == "load_balancer":
                for (_, before), (_, after) in zip(entries, entries[1:]):
                    if before and after and not before.available and not after.available:
                        registered = set(before.registered_instances)
                        assert registered.issuperset(after.registered_instances), identifier
        self.unchecked.clear()

    def check_latest_views(self):
        """The latest history entry of every resource is the describe of
        the version the registry holds."""
        for kind, identifier in self.captured:
            live = described(self.state._registries[kind].get(identifier))
            assert self.state.latest_view(kind, identifier) == live, (kind, identifier)

    def check_monitor(self):
        """The monitor answers what deep-copying the region at every crawl answers."""
        monitor, reference = self.cloud.monitor, self.reference
        if len(monitor.ticks) == self.crawls_checked:
            return  # the monitor changes only when it crawls
        assert monitor.ticks == [at for at, _ in reference.ticks]
        for kind, identifier in self.captured:
            assert monitor.changes(kind, identifier) == reference.timeline(kind, identifier)
            for tick in monitor.ticks[self.crawls_checked :]:
                for at in (tick, tick + 1.0):
                    want = reference.at(at, kind, identifier)
                    assert monitor_at(monitor, at, kind, identifier) == want, (kind, identifier, at)
        self.crawls_checked = len(monitor.ticks)


TestCloudMachine = CloudMachine.TestCase
TestCloudMachine.settings = settings(
    max_examples=150, stateful_step_count=40, derandomize=True, deadline=None
)


def test_a_fixed_script_reaches_every_reconcile_branch():
    """The machine is only an oracle if its rules get there."""
    machine = CloudMachine()
    machine.setup(seed=3, limit=5)
    for name, *args in [
        ("advance", 60.0), ("scale", 0, 8), ("scale", 1, 0), ("advance", 60.0),
        ("direct_write", 0, 0, ("healthy", False)), ("advance", 5.0), ("scale", 0, 1),
        ("advance", 60.0), ("until_boot", True), ("advance", 60.0),
        ("inject", "AMI_UNAVAILABLE", "elb-a"), ("scale", 0, 3), ("advance", 12.5),
    ]:
        getattr(machine, name)(*args)
        machine.holds()
    log = machine.state.scaling_activities
    assert {"InstanceLimitExceeded", "InvalidAMIID.NotFound"} <= {a.error_code for a in log}
    text = " | ".join(a.description for a in log)
    assert "(unhealthy)" in text and "(scale-in)" in text
    booted = {
        a.instance_id: a.time for a in log if a.activity == "Launch" and a.status == "Successful"
    }
    assert any(
        booted[iid] <= instance.terminate_time < booted[iid] + ELB_REGISTER_DELAY
        for iid, instance in machine.state.instances.items()
        if iid in booted and instance.terminate_time is not None
    ), "no instance was terminated inside its registration window"

"""Authoritative region state plus per-resource write history.

``CloudState`` is the single source of truth the API mutates.  Every
mutation also appends a timestamped snapshot to the resource's history;
the eventual-consistency layer serves *reads* from that history, possibly
lagging behind the latest write — exactly the behaviour that forced the
paper to build a "consistent AWS API layer" with retries (§IV).

History is copy-on-write: each snapshot is a :class:`~repro.cloud.freeze.FrozenView`
appended *by reference*, with sub-structures interned so identical values
(state dicts, unchanged security-group lists) are one shared object
region-wide.  ``view_at`` returns the frozen view directly — a stale read
costs one bisect and zero copying — and callers that need a scratch dict
use :func:`~repro.cloud.freeze.thaw`.  A region-wide write log (consumed
by the Edda-style monitor) makes per-tick snapshot work proportional to
writes instead of region size.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from repro.cloud.errors import ResourceNotFound
from repro.cloud.freeze import FrozenView, freeze, share_unchanged, thaw
from repro.cloud.limits import AccountLimits, RateLimiter
from repro.cloud.resources import (
    ACTIVE_STATES,
    AmiImage,
    AutoScalingGroup,
    Instance,
    InstanceState,
    KeyPair,
    LaunchConfiguration,
    LoadBalancer,
    SecurityGroup,
)

KINDS = (
    "ami",
    "security_group",
    "key_pair",
    "launch_configuration",
    "instance",
    "load_balancer",
    "auto_scaling_group",
)


class CloudState:
    """All resources in one simulated region, with write history."""

    region = "ap-southeast-2"

    def __init__(self, limits: AccountLimits | None = None) -> None:
        self.limits = limits or AccountLimits()
        self.rate_limiter = RateLimiter()
        self.amis: dict[str, AmiImage] = {}
        self.security_groups: dict[str, SecurityGroup] = {}
        self.key_pairs: dict[str, KeyPair] = {}
        self.launch_configurations: dict[str, LaunchConfiguration] = {}
        self.instances: dict[str, Instance] = {}
        self.load_balancers: dict[str, LoadBalancer] = {}
        self.auto_scaling_groups: dict[str, AutoScalingGroup] = {}
        #: kind -> registry; the registry dicts above are never rebound.
        self._registries: dict[str, dict] = {
            "ami": self.amis,
            "security_group": self.security_groups,
            "key_pair": self.key_pairs,
            "launch_configuration": self.launch_configurations,
            "instance": self.instances,
            "load_balancer": self.load_balancers,
            "auto_scaling_group": self.auto_scaling_groups,
        }
        #: (kind, id) -> parallel (write_times, frozen views) arrays; a
        #: ``None`` view is a tombstone.  Parallel arrays keep ``view_at``
        #: a single bisect over a flat float list.
        self._history: dict[tuple[str, str], tuple[list[float], list[FrozenView | None]]] = {}
        #: Intern pool: equal frozen sub-structures resolve to one object.
        self._intern: dict = {}
        #: Append-only (kind, id) write log; what the monitor crawls.
        self._write_log: list[tuple[str, str]] = []
        #: Data-plane counters (always on — they are two dict increments
        #: per write/read): snapshot sharing and stale/fresh read mix.
        self.data_plane_counters: dict[str, int] = {}
        #: Optional obs MetricsRegistry mirror (attached by the testbed).
        self._metrics = None
        #: Scaling activities appended by the ASG controller; read through
        #: the API's DescribeScalingActivities.
        self.scaling_activities: list = []
        self._id_counters = {kind: itertools.count(1) for kind in KINDS}

    def attach_obs(self, obs) -> None:
        """Mirror data-plane counters into an observability registry."""
        self._metrics = obs.metrics if obs else None

    def _count(self, name: str) -> None:
        self.data_plane_counters[name] = self.data_plane_counters.get(name, 0) + 1
        if self._metrics is not None:
            self._metrics.inc(name)

    def _count_many(self, name: str, amount: int) -> None:
        if amount <= 0:
            return
        self.data_plane_counters[name] = self.data_plane_counters.get(name, 0) + amount
        if self._metrics is not None:
            self._metrics.inc(name, amount)

    # -- registries ------------------------------------------------------

    def _registry(self, kind: str) -> dict:
        return self._registries[kind]

    def get(self, kind: str, identifier: str):
        """Authoritative (strongly consistent) lookup; raises if missing."""
        resource = self._registries[kind].get(identifier)
        if resource is None:
            raise ResourceNotFound.of(kind, identifier)
        return resource

    def exists(self, kind: str, identifier: str) -> bool:
        return identifier in self._registries[kind]

    def new_id(self, kind: str) -> str:
        prefix = {
            "ami": "ami-",
            "security_group": "sg-",
            "key_pair": "key-",
            "launch_configuration": "lc-",
            "instance": "i-",
            "load_balancer": "elb-",
            "auto_scaling_group": "asg-",
        }[kind]
        return f"{prefix}{next(self._id_counters[kind]):08x}"

    # -- mutation + history ----------------------------------------------

    def put(self, kind: str, identifier: str, resource, now: float) -> None:
        """Insert or replace a resource and record the write."""
        self._registries[kind][identifier] = resource
        self.record_write(kind, identifier, now)

    def delete(self, kind: str, identifier: str, now: float) -> None:
        """Remove a resource and record a tombstone."""
        if self._registries[kind].pop(identifier, None) is None:
            raise ResourceNotFound.of(kind, identifier)
        self._append_history(kind, identifier, now, None)

    def record_write(self, kind: str, identifier: str, now: float) -> None:
        """Snapshot a resource's current described form into its history.

        Call after any in-place mutation so eventually-consistent readers
        observe the change only once their lag elapses.  The snapshot is
        frozen once and appended by reference — no deep copy, and equal
        sub-structures are interned across the whole region.
        """
        resource = self._registries[kind].get(identifier)
        snapshot = None
        if resource is not None:
            described = resource.describe()
            self._count_many(
                "cloud.snapshot.shared",
                share_unchanged(described, self.latest_view(kind, identifier)),
            )
            snapshot = freeze(described, self._intern, self._count)
        self._append_history(kind, identifier, now, snapshot)

    def finish_termination(self, instance_id: str, now: float) -> None:
        """Mark an instance terminated and drop it from every ELB."""
        instance = self.instances.get(instance_id)
        if instance is None:
            return
        instance.state = InstanceState.TERMINATED
        self.record_write("instance", instance_id, now)
        for elb in self.load_balancers.values():
            if instance_id in elb.registered_instances:
                elb.registered_instances.remove(instance_id)
                self.record_write("load_balancer", elb.name, now)

    def _append_history(
        self, kind: str, identifier: str, now: float, snapshot: FrozenView | None
    ) -> None:
        key = (kind, identifier)
        entry = self._history.get(key)
        if entry is None:
            entry = self._history[key] = ([], [])
        entry[0].append(now)
        entry[1].append(snapshot)
        self._write_log.append(key)

    def history(self, kind: str, identifier: str) -> list[tuple[float, FrozenView | None]]:
        times, views = self._history.get((kind, identifier), ((), ()))
        return list(zip(times, views))

    def view_at(self, kind: str, identifier: str, as_of: float) -> FrozenView | None:
        """The resource's described form as of ``as_of`` (None = absent).

        A resource never written before ``as_of`` is absent; a tombstone
        makes it absent again.  This is the primitive the consistency
        layer builds stale reads on.  Returns the frozen history view
        itself — zero copying; mutate through ``thaw()`` only.
        """
        entry = self._history.get((kind, identifier))
        if entry is None:
            return None
        times, views = entry
        index = bisect_right(times, as_of) - 1
        return views[index] if index >= 0 else None

    def latest_view(self, kind: str, identifier: str) -> FrozenView | None:
        """The most recent history snapshot (None = absent/tombstoned).

        Every mutation path records a write in the same virtual instant,
        so this always equals a live ``describe()`` — without allocating
        one.
        """
        entry = self._history.get((kind, identifier))
        if entry is None:
            return None
        return entry[1][-1]

    def last_write_at(self, kind: str, identifier: str) -> float | None:
        """Time of the most recent write (including tombstones), if any."""
        entry = self._history.get((kind, identifier))
        if entry is None:
            return None
        return entry[0][-1]

    # -- write log (what the monitor crawls) ---------------------------------

    def write_seq(self) -> int:
        """Monotone position in the region-wide write log."""
        return len(self._write_log)

    def writes_since(self, position: int) -> list[tuple[str, str]]:
        """(kind, id) pairs written at or after log ``position``."""
        return self._write_log[position:]

    # -- aggregates ------------------------------------------------------

    def active_instance_count(self) -> int:
        """Instances counting against the account limit."""
        return sum([i.state in ACTIVE_STATES for i in self.instances.values()])

    def running_instances(self, asg_name: str | None = None) -> list[Instance]:
        result = [i for i in self.instances.values() if i.state == InstanceState.RUNNING]
        if asg_name is not None:
            result = [i for i in result if i.asg_name == asg_name]
        return sorted(result, key=lambda i: i.instance_id)

    def __repr__(self) -> str:
        counts = ", ".join(f"{kind}={len(self._registry(kind))}" for kind in KINDS)
        return f"CloudState({self.region}: {counts})"


__all__ = ["KINDS", "CloudState", "FrozenView", "freeze", "thaw"]

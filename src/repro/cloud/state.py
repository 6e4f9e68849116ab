"""Authoritative region state plus per-resource write history.

``CloudState`` is the single source of truth the API changes.  A resource
is its latest immutable version (:mod:`repro.cloud.resources`), and
:meth:`CloudState.write` is the only way to change one: it builds the
next version, makes it the registry's, and appends that version's frozen
describe to the resource's history — so the history is the region's
append-only write stream by construction, not by a convention each call
site keeps.  The API's describes are served from that history at the
current time, so a describe answers with the latest version.

History entries are :class:`~repro.cloud.freeze.FrozenView` objects,
appended and handed out *by reference*: ``view_at`` returns the frozen
view directly — a read costs one bisect and zero copying.
A region-wide write log (consumed by the Edda-style monitor) makes
per-tick snapshot work proportional to writes instead of region size.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from repro.cloud.errors import MalformedRequest, ResourceNotFound
from repro.cloud.freeze import FrozenView
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

_new = object.__new__
#: Sets a field of a version ``write`` is building; a frozen dataclass's
#: own ``__setattr__`` refuses every other writer.
_set = object.__setattr__

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
        #: Append-only (kind, id) write log; what the monitor crawls.
        self._write_log: list[tuple[str, str]] = []
        #: Data-plane counters (always on — two dict increments per
        #: crawl): the monitor's crawl work.  A traced run's metrics
        #: snapshot reads them at export.
        self.data_plane_counters: dict[str, int] = {}
        #: Scaling activities appended by the ASG controller; read through
        #: the API's DescribeScalingActivities.
        self.scaling_activities: list = []
        self._id_counters = {kind: itertools.count(1) for kind in KINDS}

    def _count_many(self, name: str, amount: int) -> None:
        if amount <= 0:
            return
        self.data_plane_counters[name] = self.data_plane_counters.get(name, 0) + amount

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

    def put(self, kind: str, identifier: str, resource, now: float) -> FrozenView:
        """Insert a resource's first version (or re-create it); returns the
        view it recorded."""
        self._registries[kind][identifier] = resource
        return self._append_history(kind, identifier, now, resource.describe())

    def delete(self, kind: str, identifier: str, now: float) -> None:
        """Remove a resource and record a tombstone."""
        if self._registries[kind].pop(identifier, None) is None:
            raise ResourceNotFound.of(kind, identifier)
        self._append_history(kind, identifier, now, None)

    def write(self, kind: str, identifier: str, now: float, **changes) -> FrozenView:
        """Change a resource: the one way any field of one changes.

        Builds the next version from the current one plus ``changes`` (a
        list is stored as a tuple), makes it the
        registry's and appends its describe to the history in the same
        instant; returns that view.  A missing resource or an unknown
        field raises before anything changes.
        """
        current = self.get(kind, identifier)
        fields = current.__slots__
        version = _new(type(current))
        for name in fields:
            _set(version, name, getattr(current, name))
        for name, value in changes.items():
            if name not in fields:
                label = kind.replace("_", " ")
                raise MalformedRequest(f"unknown {label} field {name!r}")
            if isinstance(value, list):
                value = tuple(value)
            _set(version, name, value)
        self._registries[kind][identifier] = version
        return self._append_history(kind, identifier, now, version.describe())

    def finish_termination(self, instance_id: str, now: float, **changes) -> None:
        """Mark an instance terminated (plus any further ``changes``, in the
        same write) and drop it from every ELB."""
        if instance_id not in self.instances:
            return
        self.write("instance", instance_id, now, state=InstanceState.TERMINATED, **changes)
        for elb in list(self.load_balancers.values()):
            if instance_id in elb.registered_instances:
                remaining = tuple(i for i in elb.registered_instances if i != instance_id)
                self.write("load_balancer", elb.name, now, registered_instances=remaining)

    def _append_history(
        self, kind: str, identifier: str, now: float, snapshot: FrozenView | None
    ) -> FrozenView | None:
        key = (kind, identifier)
        entry = self._history.get(key)
        if entry is None:
            entry = self._history[key] = ([], [])
        entry[0].append(now)
        entry[1].append(snapshot)
        self._write_log.append(key)
        return snapshot

    def history(self, kind: str, identifier: str) -> list[tuple[float, FrozenView | None]]:
        times, views = self._history.get((kind, identifier), ((), ()))
        return list(zip(times, views))

    def view_at(self, kind: str, identifier: str, as_of: float) -> FrozenView | None:
        """The resource's described form as of ``as_of`` (None = absent).

        A resource never written before ``as_of`` is absent; a tombstone
        makes it absent again.  The API's describes read it at the
        current time.  Returns the frozen history view itself — zero
        copying; it cannot be mutated.
        """
        entry = self._history.get((kind, identifier))
        if entry is None:
            return None
        times, views = entry
        index = bisect_right(times, as_of) - 1
        return views[index] if index >= 0 else None

    def latest_view(self, kind: str, identifier: str) -> FrozenView | None:
        """The most recent history snapshot (None = absent/tombstoned).

        ``write`` records every version it builds, so this is the live
        version's describe — without building another.
        """
        entry = self._history.get((kind, identifier))
        if entry is None:
            return None
        return entry[1][-1]

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


__all__ = ["KINDS", "CloudState", "FrozenView"]

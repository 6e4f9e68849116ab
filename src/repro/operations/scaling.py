"""Scaling operations: the legitimate concurrent changes of §V.B.

"To simulate a complex ecosystem, we ran another small simultaneous
operation in parallel to rolling upgrade — ASG's scaling-in."  These
operations run under their own principal and write to their own log
stream (which the upgrade's local processor never sees — interference is
only observable through its *effects* on the cloud).
"""

from __future__ import annotations

import typing as _t

from repro.cloud.errors import CloudError
from repro.operations.base import Operation


class ScaleInOperation(Operation):
    """Reduce an ASG's desired capacity by ``decrement``."""

    def __init__(self, engine, client, stream, asg_name: str, decrement: int = 1) -> None:
        super().__init__(engine, client, stream, name="scale-in", trace_id="scale-in")
        self.asg_name = asg_name
        self.decrement = decrement
        self.new_desired: int | None = None

    def run(self) -> _t.Generator:
        self.log(f"Scaling in group {self.asg_name} by {self.decrement}")
        asg = yield from self.call("describe_auto_scaling_group", self.asg_name)
        target = max(asg["MinSize"], asg["DesiredCapacity"] - self.decrement)
        try:
            yield from self.call("set_desired_capacity", self.asg_name, target)
        except CloudError as exc:
            self.fail(f"Exception during scale-in of {self.asg_name}: {exc}")
            return
        self.new_desired = target
        self.log(f"Scaled in group {self.asg_name} to desired capacity {target}")


class ScaleOutOperation(Operation):
    """Raise an ASG's desired capacity by ``increment``.

    Used by the simulated second team to soak up the shared account's
    instance limit (the paper's fourth wrong-diagnosis class).
    """

    def __init__(self, engine, client, stream, asg_name: str, increment: int = 1) -> None:
        super().__init__(engine, client, stream, name="scale-out", trace_id="scale-out")
        self.asg_name = asg_name
        self.increment = increment
        self.new_desired: int | None = None

    def run(self) -> _t.Generator:
        self.log(f"Scaling out group {self.asg_name} by {self.increment}")
        asg = yield from self.call("describe_auto_scaling_group", self.asg_name)
        target = min(asg["MaxSize"], asg["DesiredCapacity"] + self.increment)
        try:
            yield from self.call("set_desired_capacity", self.asg_name, target)
        except CloudError as exc:
            self.fail(f"Exception during scale-out of {self.asg_name}: {exc}")
            return
        self.new_desired = target
        self.log(f"Scaled out group {self.asg_name} to desired capacity {target}")

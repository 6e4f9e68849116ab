"""POD-Diagnosis configuration.

One :class:`PodConfig` per watched operation type describes the target
(desired) state the assertions compare against — the paper's
"configuration repository" — plus service tuning (watchdog calibration,
assertion convergence timeouts).
"""

from __future__ import annotations

import dataclasses

from repro.operations.rolling_upgrade import (
    DEFAULT_WATCHDOG_INTERVAL,
    DEFAULT_WATCHDOG_SLACK,
)
from repro.operations.target import TargetConfig


@dataclasses.dataclass
class PodConfig:
    """Target state + tuning for one watched rolling upgrade."""

    asg_name: str
    elb_name: str
    desired_capacity: int
    target: TargetConfig
    lc_name: str
    #: Upgrade batch size k: during the upgrade at least N' = N - k
    #: instances must stay in service (§II's availability floor).
    batch_size: int = 1
    #: Watchdog calibration (95th-percentile step gap, §IV).
    watchdog_interval: float = DEFAULT_WATCHDOG_INTERVAL
    watchdog_slack: float = DEFAULT_WATCHDOG_SLACK
    #: Convergence window for count/ELB assertions.
    assertion_convergence_timeout: float = 30.0
    #: Operation start time: bounds historical queries during diagnosis.
    operation_start: float = 0.0

    def as_repository(self) -> dict:
        """The config-repository dict assertions resolve expectations from.

        Mutable by design: a scale-in operated through proper channels
        would update ``desired_capacity`` here; the evaluation deliberately
        does *not* (the interference is unannounced), which is what turns
        concurrent scale-ins into detected anomalies.
        """
        return {
            "asg_name": self.asg_name,
            "elb_name": self.elb_name,
            "desired_capacity": self.desired_capacity,
            # The fault trees' name for the same number.
            "N": self.desired_capacity,
            "min_in_service": max(1, self.desired_capacity - self.batch_size),
            **self.target.as_repository(),
            "lc_name": self.lc_name,
            "since": self.operation_start,
        }

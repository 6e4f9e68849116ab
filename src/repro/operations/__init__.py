"""Operations: the orchestrator side (Asgard stand-in) plus interference.

- :mod:`base` — the :class:`Operation` contract;
- :mod:`steps` — canonical activity names of the rolling upgrade;
- :mod:`rolling_upgrade` — the upgrade operation and its POD artifacts
  (reference model, pattern library, bindings, watchdog);
- :mod:`scaling` — scale-in/out operations;
- :mod:`interference` — the concurrent-activity scheduler (scale-in,
  random termination, account pressure) and the second team sharing the
  account.
"""

from repro.operations.base import Operation
from repro.operations.profile import OperationProfile, rolling_upgrade_profile
from repro.operations.interference import InterferencePlan, InterferenceScheduler, SecondTeam
from repro.operations.rolling_upgrade import (
    RollingUpgradeOperation,
    RollingUpgradeParams,
    build_pattern_library,
    reference_process_model,
    standard_bindings,
)
from repro.operations.scaling import ScaleInOperation, ScaleOutOperation

__all__ = [
    "InterferencePlan",
    "OperationProfile",
    "rolling_upgrade_profile",
    "InterferenceScheduler",
    "Operation",
    "RollingUpgradeOperation",
    "RollingUpgradeParams",
    "ScaleInOperation",
    "ScaleOutOperation",
    "SecondTeam",
    "build_pattern_library",
    "reference_process_model",
    "standard_bindings",
]

"""``repro.recovery`` — the closed-loop recovery plane.

Turns confirmed root causes from :mod:`repro.diagnosis` into verified,
fault-tolerant recovery: the fix catalog and the idempotent actions it
prescribes (:mod:`repro.recovery.plan`), an executor with bounded full-jitter
retries, per-action deadlines, an undo log with compensation and
post-action verification probes (:mod:`repro.recovery.engine`), and a
per-run supervisor that resumes the interrupted operation from its batch
checkpoint instead of restarting it (:mod:`repro.recovery.supervisor`).

Terminal outcome classes: ``RECOVERED`` (every probe green, resumed
upgrade conformant) and ``ESCALATED`` (human-action plan attached).
"""

from repro.recovery.engine import ActionResult, RecoveryEngine, RecoveryResult
from repro.recovery.plan import (
    ESCALATED,
    RECOVERED,
    RecoveryAction,
    RecoveryPlan,
    VerificationProbe,
    build_recovery_plan,
)
from repro.recovery.supervisor import recover_run

__all__ = [
    "ESCALATED",
    "RECOVERED",
    "ActionResult",
    "RecoveryAction",
    "RecoveryEngine",
    "RecoveryPlan",
    "RecoveryResult",
    "VerificationProbe",
    "build_recovery_plan",
    "recover_run",
]

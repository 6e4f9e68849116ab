"""Error diagnosis (§III.B.4).

Triggered by assertion failures, conformance non-conformances, or failure
lines from other monitors, the :class:`DiagnosisEngine` selects the fault
tree(s) for the trigger and drives the walk (:mod:`repro.diagnosis.walk`,
a pure function of observations) top-down over the registry's own nodes:
the walk binds the runtime request's variables as it visits each node and
skips the subtrees the process context prunes,
running the *diagnostic tests* it asks for — on-demand assertion
evaluations and custom probes against the monitor/CloudTrail/scaling
activities — confirming or excluding potential faults until root causes
are identified (or "No root cause identified" is reported).
"""

from repro.diagnosis.engine import DiagnosisEngine
from repro.diagnosis.report import DiagnosisReport, RootCause, TestExecution
from repro.diagnosis.tests import CustomTestRegistry, build_standard_probes

__all__ = [
    "CustomTestRegistry",
    "DiagnosisEngine",
    "DiagnosisReport",
    "RootCause",
    "TestExecution",
    "build_standard_probes",
]

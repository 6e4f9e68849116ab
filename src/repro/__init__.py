"""POD-Diagnosis (DSN 2014) reproduction.

Process-Oriented Dependability Diagnosis: error detection and root-cause
diagnosis of sporadic cloud operations (rolling upgrades) via process
models, conformance checking, assertion evaluation and fault trees —
reproduced end to end on an in-process cloud simulator.

Quick start::

    from repro import build_testbed

    testbed = build_testbed(cluster_size=4, seed=1)
    testbed.run_upgrade()
    print(testbed.pod.detections)

See ``examples/quickstart.py`` for the full walkthrough and DESIGN.md for
the system inventory.
"""

from repro.pod import Detection, PODDiagnosis
from repro.testbed import Testbed, build_testbed

__version__ = "1.0.0"

__all__ = [
    "Detection",
    "PODDiagnosis",
    "Testbed",
    "build_testbed",
    "__version__",
]

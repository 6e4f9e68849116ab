"""POD-Diagnosis facade: the paper's Fig. 1, wired and ready."""

from repro.pod.service import Detection, PODDiagnosis

__all__ = ["Detection", "PODDiagnosis"]

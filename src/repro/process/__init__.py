"""Process models, token-replay conformance checking, and process mining.

POD-Diagnosis models a sporadic operation as an explicit process (Fig. 2:
the rolling upgrade).  This package provides:

- :mod:`repro.process.model` — a BPMN-flavoured process model (activities,
  XOR gateways, loops) compiled to a Petri net for token replay;
- :mod:`repro.process.compiled` — the token-replay engine: one flat
  transition table per model, one in-place marking per trace;
- :mod:`repro.process.conformance` — the conformance-checking service that
  classifies each log line as *fit*, *unfit*, *unknown* or *error* and
  derives the error context;
- :mod:`repro.process.mining` — offline discovery: string-distance log
  clustering, regex derivation, and directly-follows-graph discovery that
  reconstructs Fig. 2 from raw logs of successful runs.
"""

from repro.process.compiled import (
    CompiledInstance,
    CompiledReplayer,
    CompiledReplayTable,
    compile_model,
)
from repro.process.context import ProcessContext
from repro.process.conformance import ConformanceChecker, ConformanceResult
from repro.process.model import Activity, PetriNet, ProcessModel

__all__ = [
    "Activity",
    "CompiledInstance",
    "CompiledReplayer",
    "CompiledReplayTable",
    "ConformanceChecker",
    "ConformanceResult",
    "PetriNet",
    "ProcessContext",
    "ProcessModel",
    "compile_model",
]

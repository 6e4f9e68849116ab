"""Assertion framework (§III.B.3).

Assertions capture "the expected outcomes of each intermediary step" of an
operation process.  They are evaluated against the cloud through a
*consistent API layer* (exponential retry + timeout against eventual
consistency), triggered by log lines, timers, or on-demand during
diagnosis.

- :mod:`base` — the :class:`Assertion` contract and evaluation environment;
- :mod:`results` — evaluation outcomes;
- :mod:`consistent_api` — the retrying/timeout API wrapper of §IV;
- :mod:`library` — the pre-defined assertions for ASG/ELB operations;
- :mod:`evaluation` — the evaluation service with its three trigger paths.
"""

from repro.assertions.base import Assertion, AssertionEnvironment, HIGH_LEVEL, LOW_LEVEL
from repro.assertions.consistent_api import ConsistentApiClient, ConsistentCallError
from repro.assertions.evaluation import AssertionEvaluationService
from repro.assertions.library import (
    AsgConfigAssertion,
    AsgInstanceCountAssertion,
    ElbRegistrationAssertion,
    InstanceVersionAssertion,
    ResourceExistsAssertion,
    standard_rolling_upgrade_assertions,
)
from repro.assertions.results import AssertionResult

__all__ = [
    "Assertion",
    "AssertionEnvironment",
    "AssertionEvaluationService",
    "AssertionResult",
    "AsgConfigAssertion",
    "AsgInstanceCountAssertion",
    "ConsistentApiClient",
    "ConsistentCallError",
    "ElbRegistrationAssertion",
    "HIGH_LEVEL",
    "InstanceVersionAssertion",
    "LOW_LEVEL",
    "ResourceExistsAssertion",
    "standard_rolling_upgrade_assertions",
]

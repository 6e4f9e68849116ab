"""The POD-Diagnosis service: Fig. 1 assembled.

Wires together the log pipeline, conformance checking, assertion
evaluation, fault trees and the diagnosis engine over a simulated cloud.
One service instance watches one operation process type (here: rolling
upgrade); call :meth:`watch` for each operation node's log stream, with
its operation's declaration: each trace is judged against its own.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.assertions.base import AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient
from repro.assertions.evaluation import AssertionEvaluationService
from repro.assertions.library import standard_rolling_upgrade_assertions
from repro.diagnosis.engine import DiagnosisEngine
from repro.diagnosis.tests import shared_standard_probes
from repro.faulttree.library import shared_standard_fault_trees
from repro.logsys.annotator import ProcessAnnotator
from repro.logsys.filters import NoiseFilter
from repro.logsys.pipeline import LocalLogProcessor
from repro.logsys.record import LogStream
from repro.logsys.storage import CentralLogStorage
from repro.logsys.timers import TimerSetter
from repro.logsys.trigger import Trigger
from repro.operations.profile import shared_rolling_upgrade_profile
from repro.operations.rolling_upgrade import DEFAULT_WATCHDOG_SLACK, RollingUpgradeParams
from repro.process.conformance import ConformanceChecker
from repro.sim.latency import aws_api_latency

#: How long ``quiesce`` waits for in-flight work to drain, virtual seconds.
QUIESCE_LIMIT = 300.0


@dataclasses.dataclass
class Detection:
    """One detected anomaly (unit of the paper's precision/recall)."""

    time: float
    kind: str  # "assertion" | "conformance"
    detail: str
    cause: str  # trigger path for assertions; status for conformance
    trace_id: str
    step: str | None


class PODDiagnosis:
    """Process-Oriented Dependability Diagnosis over a simulated cloud."""

    def __init__(
        self,
        cloud,
        watchdog_interval: float,
        seed: int = 0,
        chaos=None,
    ) -> None:
        self.cloud = cloud
        self._seed = seed
        #: Optional :class:`~repro.cloud.chaos.ChaosController` degrading
        #: the API plane this service observes through.
        self.chaos = chaos
        engine = cloud.engine
        self.engine = engine
        self.storage = CentralLogStorage()
        # Warm shared copy: the profile bundle (compiled pattern library,
        # process model, bindings factory) is immutable during runs, so
        # every service in this process reuses one.
        profile = self.profile = shared_rolling_upgrade_profile()
        self.library = profile.library
        self.model = profile.model

        # Assertion evaluation (Fig. 4).  Each watched trace gets a copy
        # of this environment holding its own configuration repository.
        self.env = AssertionEnvironment(
            engine=engine,
            client=self._client("pod-diagnosis", 101, 103),
            monitor=cloud.monitor,
            state=cloud.state,
            trail=cloud.trail,
            operation_api_calls=cloud.api("asgard").calls,
        )
        self.assertions = AssertionEvaluationService(
            self.env, storage=self.storage, on_failure=self._on_assertion_failure
        )
        self.assertions.register_all(standard_rolling_upgrade_assertions())

        # Error diagnosis (fault trees + probes).  Shared warm copies:
        # diagnosis only reads the trees and probes are stateless, so the
        # registries are safe to reuse process-wide.
        self.trees = shared_standard_fault_trees()
        self.probes = shared_standard_probes()
        self.diagnosis = DiagnosisEngine(
            engine,
            self.trees,
            self.assertions,
            self.probes,
            storage=self.storage,
            seed=seed,
        )

        # Conformance checking.
        self.conformance = ConformanceChecker(
            self.model,
            self.library,
            clock=engine.clock,
            storage=self.storage,
            on_error=self._on_conformance_error,
        )

        # The watchdog, one per watched trace: its missed deadlines
        # evaluate the profile's high-level assertions.
        self.timers = TimerSetter(
            engine,
            start_activity=profile.watchdog_start,
            end_activity=profile.watchdog_end,
            align_activities=profile.watchdog_aligns,
            interval=watchdog_interval,
            slack=DEFAULT_WATCHDOG_SLACK,
            on_timeout=functools.partial(
                self.assertions.trigger_from_timer,
                assertion_ids=list(profile.watchdog_assertions),
            ),
        )

        self.detections: list[Detection] = []
        self.processors: list[LocalLogProcessor] = []
        self._watched: list[LogStream] = []  # parallel to `processors`

    # -- wiring ------------------------------------------------------------------

    def watch(
        self, stream: LogStream, trace_id: str, params: RollingUpgradeParams, since: float
    ) -> LocalLogProcessor:
        """Attach a local log processor to one operation node's log; the
        trace is judged against the repository of ``params``, the
        operation started at ``since``."""
        self.assertions.watch(trace_id, params.as_repository(since))
        processor = LocalLogProcessor(
            noise_filter=NoiseFilter(self.library, passthrough_unmatched=True),
            process_annotator=ProcessAnnotator(self.library, self.model.model_id, trace_id),
            assertion_annotator=self.profile.bindings_factory(),
            trigger=Trigger(
                conformance=self.conformance.check,
                assertions=self.assertions.trigger_from_log,
            ),
            storage=self.storage,
            timer_setter=self.timers,
        )
        processor.attach(stream)
        self.processors.append(processor)
        self._watched.append(stream)
        return processor

    def close(self) -> None:
        """Stop serving: no timer fires, no record is processed, no failure
        is reported.  Cuts each reference from a component back to this
        service and from each tailed stream to its processor (DESIGN.md §8
        "Run lifecycle"); what was recorded stays readable.  Idempotent.
        """
        self.timers.stop_all()
        for stream, processor in zip(self._watched, self.processors):
            stream.unsubscribe(processor.process)
        self._watched.clear()
        self.processors.clear()
        self.conformance.on_error = None
        self.assertions.on_failure = None

    # -- detection bookkeeping ------------------------------------------------------

    def _on_assertion_failure(self, result) -> None:
        self.detections.append(
            Detection(
                time=result.time,
                kind="assertion",
                detail=result.assertion_id,
                cause=result.cause,
                trace_id=result.context.trace_id if result.context else "unknown",
                step=result.context.step if result.context else None,
            )
        )
        self.diagnosis.diagnose_assertion_failure(result)

    def _on_conformance_error(self, result) -> None:
        self.detections.append(
            Detection(
                time=self.engine.now,
                kind="conformance",
                detail=result.status,
                cause=result.status,
                trace_id=result.trace_id,
                step=result.activity,
            )
        )
        self.diagnosis.diagnose_conformance_error(result)

    # -- the API plane ---------------------------------------------------------------

    def _client(self, principal: str, latency_seed: int, jitter_seed: int) -> ConsistentApiClient:
        """The one place a consistent-API client is built.  Each plane has
        its own principal and RNG streams (offsets from the service seed,
        so independent runs draw independent timings); both see the same
        chaos wrapping, so a degraded API plane degrades recovery the same
        way it degrades diagnosis."""
        api = self.cloud.api(principal)
        latency = aws_api_latency(seed=self._seed + latency_seed)
        if self.chaos is not None and self.chaos.enabled:
            api = self.chaos.wrap(api)
            latency = self.chaos.wrap_latency(latency)
        return ConsistentApiClient(
            self.engine,
            api,
            latency=latency,
            seed=self._seed + jitter_seed,
        )

    def recovery_client(self) -> ConsistentApiClient:
        """A client for the recovery plane: its own principal and RNG
        streams — recovery runs strictly after the upgrade phase, so they
        never perturb non-recovering runs."""
        return self._client("recovery", 211, 212)

    # -- views -----------------------------------------------------------------------

    @property
    def reports(self) -> list:
        return self.diagnosis.completed

    def quiesce(self) -> None:
        """Run the simulation until in-flight evaluations/diagnoses drain.

        The campaign calls this after an operation ends so every triggered
        diagnosis completes before metrics are read.
        """
        deadline = self.engine.now + QUIESCE_LIMIT
        while self.engine.now < deadline:
            if self.assertions.in_flight == 0 and self.diagnosis.in_flight == 0:
                return
            self.engine.run(until=min(self.engine.now + 5.0, deadline))

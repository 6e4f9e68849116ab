"""The recovery engine: execute a plan's actions, verified and compensable.

:class:`RecoveryEngine.execute` is a simulation generator (drive it with
``yield from`` inside an engine process).  Per action it applies the
hardened-client discipline established for the assertion plane:

- **idempotency**: the verification probe runs *first*; if the expected
  state already holds (a previous attempt finished the work), the action
  is recorded ``already-satisfied`` and nothing is mutated;
- **bounded retry with full-jitter backoff** between attempts, and a
  **per-action deadline** propagated into every API call and probe so no
  attempt can outlive its budget;
- an **undo log**: compensation for an action is recorded before its
  first mutation (for restores, from the prior state the idempotency
  pre-check read), and on any action's terminal failure the whole
  partially-applied plan is rolled back in reverse order — saga
  semantics, best-effort under a degraded plane;
- a **verification probe** through the consistent client (absorbing
  eventual consistency via ``call_until``) before the action counts.

The executor *never raises* and never loops forever: every API failure
(:class:`CloudError`, :class:`ConsistentCallError` — including chaos
blackholes and breaker fast-fails) is caught, retries are bounded by
``MAX_ATTEMPTS``, deadlines bound each attempt, and exhaustion degrades
into the explicit ``ESCALATED`` terminal state with the human-action
plan attached.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t

from repro.assertions.consistent_api import ConsistentCallError
from repro.cloud.errors import CloudError, ResourceNotFound
from repro.recovery.plan import ESCALATED, RECOVERED, RecoveryAction, RecoveryPlan

#: Per-action terminal statuses.
VERIFIED = "verified"
ALREADY_SATISFIED = "already-satisfied"
FAILED = "failed"
BLOCKED = "blocked"

#: Attempts per action, and each attempt's deadline (virtual seconds),
#: propagated into every API call and the verification probe — the
#: hardened-client discipline.
MAX_ATTEMPTS = 3
ACTION_DEADLINE = 120.0

#: Full-jitter backoff window between an action's attempts: doubles from
#: the base, capped; and the per-call deadline of a compensation (undo)
#: call.  Virtual seconds.
BASE_BACKOFF = 2.0
MAX_BACKOFF = 30.0
COMPENSATION_DEADLINE = 60.0


@dataclasses.dataclass
class ActionResult:
    """What happened to one action of the plan."""

    action_id: str
    action: str
    target: str | None
    status: str = BLOCKED
    attempts: int = 0
    verified_at: float | None = None
    error: str | None = None
    #: The failure was attributable to API-plane degradation (chaos).
    degraded: bool = False
    compensated: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RecoveryResult:
    """Terminal outcome of one plan execution."""

    status: str
    actions: list[ActionResult] = dataclasses.field(default_factory=list)
    advisory: list[str] = dataclasses.field(default_factory=list)
    started_at: float = 0.0
    finished_at: float | None = None
    #: When the last action's probe went green (RECOVERED only).
    verified_at: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == RECOVERED


class RecoveryEngine:
    """Supervised executor for one :class:`RecoveryPlan`."""

    def __init__(
        self,
        engine,
        client,
        seed: int = 0,
        obs=None,
    ) -> None:
        self.engine = engine
        self.client = client
        self._tracer = obs.tracer if obs else None
        self._rng = random.Random(seed)
        #: What this engine (and its supervisor) did, always counted; a
        #: run's metrics read it at export as ``recovery.<name>``.
        self.counters: dict[str, int] = {}

    # -- counters + spans ------------------------------------------------

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def _start_span(self, name: str, **attrs: _t.Any):
        if self._tracer is not None:
            return self._tracer.start_span(name, "recovery", **attrs)
        return None

    def _finish_span(self, span, **attrs: _t.Any) -> None:
        if self._tracer is not None:
            self._tracer.finish(span, **attrs)

    # -- execution -------------------------------------------------------

    def execute(self, plan: RecoveryPlan) -> _t.Generator:
        """Run the plan; returns a :class:`RecoveryResult`, never raises."""
        result = RecoveryResult(
            status=ESCALATED,
            advisory=list(plan.advisory),
            started_at=self.engine.now,
        )
        self.count("plans")
        span = self._start_span("execute", actions=len(plan.actions))
        if not plan.actions:
            # Nothing automatable: terminal escalation, advisory attached.
            result.finished_at = self.engine.now
            self.count("escalations")
            self._finish_span(span, status=ESCALATED)
            return result

        #: (action_id, [compensation calls]) in application order.
        undo_log: list[tuple[str, list[tuple]]] = []
        failed: set[str] = set()
        aborted = False
        for action in plan.actions:
            record = ActionResult(
                action_id=action.action_id, action=action.action, target=action.target
            )
            result.actions.append(record)
            # One failed action aborts the whole plan (saga semantics):
            # the remainder is recorded blocked, then everything applied
            # so far is compensated in reverse order.
            if aborted or any(dep in failed for dep in action.depends_on):
                record.status = BLOCKED
                record.error = (
                    "dependency failed"
                    if any(dep in failed for dep in action.depends_on)
                    else "plan aborted after earlier failure"
                )
                self.count("actions.blocked")
                failed.add(action.action_id)
                continue
            ok = yield from self._run_action(action, record, undo_log)
            if not ok:
                failed.add(action.action_id)
                aborted = True

        if failed:
            yield from self._compensate(undo_log, result)
            result.status = ESCALATED
            for record in result.actions:
                if record.status == FAILED:
                    result.advisory.append(
                        f"Automated {record.action} on {record.target} failed"
                        f" ({record.error}); complete it manually"
                    )
            self.count("escalations")
        else:
            result.status = RECOVERED
            result.verified_at = max(
                (r.verified_at for r in result.actions if r.verified_at is not None),
                default=self.engine.now,
            )
            self.count("recovered")
        result.finished_at = self.engine.now
        self._finish_span(span, status=result.status)
        return result

    # -- one action ------------------------------------------------------

    def _run_action(
        self,
        action: RecoveryAction,
        record: ActionResult,
        undo_log: list[tuple[str, list[tuple]]],
    ) -> _t.Generator:
        span = self._start_span(action.action, target=action.target)
        self.count("actions")
        mutated = False
        for attempt in range(1, MAX_ATTEMPTS + 1):
            record.attempts = attempt
            deadline = self.engine.now + ACTION_DEADLINE
            try:
                # Idempotency pre-check: a strongly consistent read of the
                # target; if the expected state already holds (earlier
                # attempt, concurrent healing), do not mutate again.
                current = yield from self._read_target(action, deadline)
                if action.probe.satisfied_by(current):
                    record.status = VERIFIED if mutated else ALREADY_SATISFIED
                    record.verified_at = self.engine.now
                    self.count("actions.verified" if mutated else "actions.already_satisfied")
                    self._finish_span(span, status=record.status)
                    return True
                # Record compensation *before* the first mutation so a
                # failure mid-calls still rolls back.
                if not mutated:
                    undo = action.compensation(current)
                    if undo:
                        undo_log.append((action.action_id, undo))
                for method, args, kwargs in action.api_calls:
                    mutated = True
                    yield from self.client.call(
                        method, *args, deadline=deadline, **kwargs
                    )
                verified = yield from self._verify(action, deadline)
                if verified:
                    record.status = VERIFIED
                    record.verified_at = self.engine.now
                    self.count("actions.verified")
                    self._finish_span(span, status=VERIFIED)
                    return True
                record.error = "verification probe never went green"
            except ConsistentCallError as exc:
                record.error = str(exc)
                record.degraded = record.degraded or exc.degraded
                self.count("api_errors")
            except CloudError as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                self.count("api_errors")
            if attempt < MAX_ATTEMPTS:
                # Full-jitter backoff between attempts: decorrelates the
                # recovery plane's retries from everyone else's.
                self.count("retries")
                backoff = min(BASE_BACKOFF * (2 ** (attempt - 1)), MAX_BACKOFF)
                yield self.engine.timeout(self._rng.uniform(0.0, backoff))
        record.status = FAILED
        self.count("actions.failed")
        self._finish_span(span, status=FAILED, error=record.error)
        return False

    def _read_target(self, action: RecoveryAction, deadline: float) -> _t.Generator:
        """One consistent read of the probe target; None if it is gone."""
        try:
            result = yield from self.client.call(
                action.probe.method,
                *action.probe.args,
                deadline=deadline,
                consistent=True,
            )
            return result
        except ResourceNotFound:
            return None

    def _verify(self, action: RecoveryAction, deadline: float) -> _t.Generator:
        """Post-action verification probe through the consistent client.

        Eventually consistent reads retried via ``call_until`` until the
        expected configuration appears or the action deadline passes.
        """
        timeout = max(5.0, deadline - self.engine.now)
        self.count("probes")
        try:
            yield from self.client.call_until(
                action.probe.method,
                *action.probe.args,
                predicate=action.probe.satisfied_by,
                timeout=timeout,
            )
            return True
        except (CloudError, ConsistentCallError):
            return False

    def _compensate(
        self, undo_log: list[tuple[str, list[tuple]]], result: RecoveryResult
    ) -> _t.Generator:
        """Best-effort rollback of the partially-applied plan."""
        by_id = {r.action_id: r for r in result.actions}
        for action_id, calls in reversed(undo_log):
            record = by_id.get(action_id)
            if record is None or record.status == ALREADY_SATISFIED:
                # Nothing this plan changed for that action; leave it be.
                continue
            undone = True
            for method, args, kwargs in calls:
                try:
                    yield from self.client.call(
                        method,
                        *args,
                        deadline=self.engine.now + COMPENSATION_DEADLINE,
                        **kwargs,
                    )
                except (CloudError, ConsistentCallError):
                    # Best-effort: a degraded plane may block rollback too;
                    # the escalation advisory covers the manual path.
                    undone = False
                    break
            if undone:
                record.compensated = True
                self.count("compensations")

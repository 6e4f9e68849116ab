"""Operation profiles: the per-operation artifact bundle.

§III.C: "the effort on model discovery, log annotation configuration,
assertion specification and fault tree creation only needs to be spent
once for an operation tool".  An :class:`OperationProfile` *is* that
once-per-operation bundle — process model, pattern library, assertion
bindings, watchdog calibration — so POD-Diagnosis can watch any operation
type, not just the rolling upgrade.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.logsys.annotator import AssertionAnnotator
from repro.logsys.patterns import PatternLibrary
from repro.process.model import ProcessModel


@dataclasses.dataclass
class OperationProfile:
    """Everything POD-Diagnosis needs to watch one operation type."""

    #: Stable identifier (doubles as the process-model id).
    profile_id: str
    model: ProcessModel
    library: PatternLibrary
    #: Builds a fresh AssertionAnnotator (bindings are per-processor).
    bindings_factory: _t.Callable[[], AssertionAnnotator]
    #: Watchdog wiring: armed by the start activity, disarmed by the end
    #: activity, kicked by each align activity.
    watchdog_start: str
    watchdog_end: str
    watchdog_aligns: tuple[str, ...]
    #: Assertions evaluated when the watchdog expires.
    watchdog_assertions: tuple[str, ...]
    #: Mapping from this operation's activities to the canonical step
    #: names the shared fault trees scope their subtrees by.  §III.C: the
    #: fault trees are a knowledge base "reusable in any sporadic
    #: operations using the cloud API" — aliasing is how a new operation
    #: plugs its own process context into that shared knowledge.
    step_aliases: dict[str, str] = dataclasses.field(default_factory=dict)

    def validate(self) -> list[str]:
        """Cross-artifact consistency problems (empty list = coherent)."""
        problems = list(self.model.validate())
        known = set(self.library.activities())
        for activity in (self.watchdog_start, self.watchdog_end, *self.watchdog_aligns):
            if activity not in self.model.activities:
                problems.append(f"watchdog activity {activity!r} not in the model")
        for activity in self.model.activities:
            if activity not in known:
                problems.append(f"model activity {activity!r} has no log pattern")
        for activity in self.step_aliases:
            if activity not in self.model.activities:
                problems.append(f"step alias source {activity!r} not in the model")
        bindings = self.bindings_factory()
        for (activity, _position), _ids in bindings.bindings.items():
            if activity not in self.model.activities:
                problems.append(f"binding references unknown activity {activity!r}")
        return problems


def rolling_upgrade_profile() -> OperationProfile:
    """The paper's case study, as a profile."""
    from repro.operations import rolling_upgrade as ru
    from repro.operations import steps

    return OperationProfile(
        profile_id="rolling-upgrade",
        model=ru.reference_process_model(),
        library=ru.build_pattern_library(),
        bindings_factory=ru.standard_bindings,
        watchdog_start=steps.START,
        watchdog_end=steps.COMPLETED,
        watchdog_aligns=(steps.UPDATE_LC, steps.SORT, steps.DEREGISTER,
                         steps.TERMINATE, steps.READY),
        watchdog_assertions=tuple(ru.WATCHDOG_ASSERTIONS),
    )


@functools.lru_cache(maxsize=1)
def shared_rolling_upgrade_profile() -> OperationProfile:
    """Process-wide warm copy of the rolling-upgrade profile.

    The profile bundle is heavyweight (pattern regexes compile, the
    prefilter plan is derived, the model graph is built) yet immutable
    during runs: classification memoises onto records, token replay copies
    its marking per :class:`~repro.process.compiled.CompiledInstance`, and
    bindings come from a per-processor factory.  Campaign runs therefore
    share one copy per process instead of rebuilding it per testbed —
    the per-worker "warm state" half of the parallel-campaign speedup.
    """
    return rolling_upgrade_profile()

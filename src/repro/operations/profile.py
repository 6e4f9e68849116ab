"""Operation profiles: the per-operation artifact bundle.

§III.C: "the effort on model discovery, log annotation configuration,
assertion specification and fault tree creation only needs to be spent
once for an operation tool".  An :class:`OperationProfile` *is* that
once-per-operation bundle — process model, pattern library, assertion
bindings, watchdog calibration — for the one operation POD-Diagnosis
watches here, the rolling upgrade.
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

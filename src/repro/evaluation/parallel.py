"""Parallel campaign execution: fan runs out to worker processes.

Every campaign run provisions its own in-process testbed and is seeded
exclusively from its :class:`~repro.evaluation.campaign.RunSpec`, so the
campaign is embarrassingly parallel: outcomes depend only on the spec,
never on which worker executed them or in what order they finished.
This module exploits that:

- :func:`execute_run` — one spec, run once, with crash isolation (a
  raising run becomes a structured failure
  :class:`~repro.evaluation.campaign.RunOutcome`, never a dead campaign);
- :func:`execute_specs` — a batch of specs, serially or across a
  :class:`~concurrent.futures.ProcessPoolExecutor`, results re-sorted
  into spec order so worker count and completion order are invisible.

A caller who asks for workers gets workers: :func:`resolve_workers` clamps
the request to the host's core count and to the number of specs — the
two things the code can observe — and anything above one starts a pool.
There is no pool-vs-serial cost model (see DESIGN.md §10 for why).

**Throughput:** specs are submitted in *chunks* (several specs per
future) so pickle/IPC round trips amortise across runs instead of being
paid per run, and each worker is started with :func:`warm_worker`, a pool
initializer that pre-builds the heavyweight immutable state every run
needs (compiled pattern library, process model, fault-tree and probe
registries) once per worker instead of once per run.  Records that ride
back through ``RunOutcome`` chunks shed their classify-once memos at the
pickle boundary (see ``LogRecord.__getstate__``): the memo holds a dead
cross-process library identity and would bloat every IPC payload.

**Determinism guarantee:** for a fixed :class:`CampaignConfig` seed, the
outcome list — and therefore the computed
:class:`~repro.evaluation.metrics.CampaignMetrics` — is bit-for-bit
identical whether the campaign runs serially or with any number of
workers.

**Progress bridge:** callbacks cannot cross process boundaries (they are
not picklable, and the child's prints would interleave).  Instead each
worker returns its finished outcomes through the future and the *parent*
invokes ``progress(completed, total, outcome)`` as results arrive — in
chunk-completion order for the pool path (each chunk's outcomes reported
in spec order), in spec order for the serial path.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import traceback
import typing as _t

from repro.evaluation.campaign import RunOutcome, RunSpec, run_single

#: A callable executing one spec; must be a picklable top-level function
#: when used with worker processes.
Runner = _t.Callable[[RunSpec], RunOutcome]

#: Progress callback: (completed runs, total runs, the outcome that just
#: finished).  Invoked in the parent process only.
ProgressFn = _t.Callable[[int, int, RunOutcome], None]


def execute_run(spec: RunSpec, runner: Runner | None = None) -> RunOutcome:
    """Execute one campaign run, once, isolated against crashes.

    The outcome is a function of ``spec`` alone: the fault fires at
    ``spec.inject_at`` or on the upgrade's terminal log line, whichever
    comes first (:func:`~repro.evaluation.faults.schedule_fault`), so no
    run is discarded and rerun with another spec.  Any exception out of
    the run becomes a structured failure record carrying the traceback,
    so one broken run cannot kill a whole campaign.
    """
    run = runner if runner is not None else run_single
    try:
        return run(spec)
    except Exception:
        return RunOutcome.failure(spec, traceback.format_exc())


#: Target chunks per worker: small enough to amortise pickle/IPC, large
#: enough that one slow chunk cannot leave the pool idle at the tail.
CHUNKS_PER_WORKER = 4


def warm_worker() -> None:
    """Pool initializer: pre-build heavyweight immutable state per worker.

    Every campaign run needs the operation profile (compiled pattern
    library + process model), the standard fault trees and the probe
    registry.  All three are immutable during runs and cached
    process-wide, so building them once in the initializer means no run
    in this worker ever pays the build again.
    """
    from repro.diagnosis.tests import shared_standard_probes
    from repro.faulttree.library import shared_standard_fault_trees
    from repro.operations.profile import shared_rolling_upgrade_profile
    from repro.process.compiled import compile_model

    profile = shared_rolling_upgrade_profile()
    # Pre-compile the replay transition table too: it is cached on the
    # shared model, so no run in this worker ever compiles it again.
    compile_model(profile.model)
    shared_standard_fault_trees()
    shared_standard_probes()


def execute_chunk(specs: _t.Sequence[RunSpec], runner: Runner | None = None) -> list[RunOutcome]:
    """Execute a chunk of specs in order; the unit of pool submission."""
    return [execute_run(spec, runner) for spec in specs]


def specs_per_chunk(total: int, workers: int) -> int:
    """Specs per future: ``ceil(total / (workers * CHUNKS_PER_WORKER))``."""
    return max(1, -(-total // (workers * CHUNKS_PER_WORKER)))


def resolve_workers(max_workers: int | None, total: int = 0) -> int:
    """Normalise a worker-count knob to an effective pool size.

    ``None``, ``0`` and ``1`` mean serial; any negative value means "all
    cores".  Positive values are capped at ``os.cpu_count()`` — on a
    one-core host *every* value resolves to 1, because extra processes
    only time-slice the same core while still paying fork and IPC — and
    at the number of specs (spawning idle workers is pure overhead).
    """
    if max_workers is None or max_workers in (0, 1):
        return 1
    cores = os.cpu_count() or 1
    workers = cores if max_workers < 0 else min(max_workers, cores)
    return max(1, min(workers, total) if total else workers)


def execute_specs(
    specs: _t.Sequence[RunSpec],
    max_workers: int | None = None,
    progress: ProgressFn | None = None,
    runner: Runner | None = None,
) -> list[RunOutcome]:
    """Execute a batch of specs, serially or across a process pool.

    The returned list is always in spec order, independent of worker
    count, chunking and completion order.  ``max_workers`` goes through
    :func:`resolve_workers`; one worker runs the specs in this process,
    more start a pool.  ``runner`` substitutes the per-run function
    (testing hook); with workers it must be picklable.
    """
    specs = list(specs)
    total = len(specs)
    workers = resolve_workers(max_workers, total)
    if workers <= 1 or not specs:
        outcomes = []
        for spec in specs:
            outcome = execute_run(spec, runner)
            outcomes.append(outcome)
            if progress is not None:
                progress(len(outcomes), total, outcome)
        return outcomes

    task: _t.Callable[[_t.Sequence[RunSpec]], list[RunOutcome]] = (
        execute_chunk if runner is None else functools.partial(execute_chunk, runner=runner)
    )
    size = specs_per_chunk(total, workers)
    results: list[RunOutcome | None] = [None] * total
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=warm_worker
    ) as pool:
        futures = {
            pool.submit(task, specs[start:start + size]): start
            for start in range(0, total, size)
        }
        completed = 0
        for future in concurrent.futures.as_completed(futures):
            start = futures[future]
            try:
                outcomes = future.result()
            except Exception as exc:
                # execute_run already catches run exceptions inside the
                # worker; reaching here means the worker itself died
                # (killed, OOM, unpicklable result) mid-chunk.  Every run
                # in the chunk is reported failed — still not fatal.
                outcomes = [
                    RunOutcome.failure(
                        spec, f"worker failed: {type(exc).__name__}: {exc}"
                    )
                    for spec in specs[start:start + size]
                ]
            for offset, outcome in enumerate(outcomes):
                results[start + offset] = outcome
                completed += 1
                if progress is not None:
                    progress(completed, total, outcome)
    return _t.cast("list[RunOutcome]", results)

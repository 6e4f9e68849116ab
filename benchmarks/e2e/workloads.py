"""The four workloads: what one op is, how a round runs, how it is scored.

Work is fixed by op and round counts, never by wall time, so both sides
of a later comparison execute identical work.  Everything here runs in
one process on one thread; the load is a closed loop with one client.

A *round* returns its per-op wall times, an outcome digest and a tally of
outcome counters.  Rounds that were given the same inputs (same ``key``)
must produce the same digest — that is the correctness oracle.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import datetime
import functools
import gc
import hashlib
import heapq
import json
import sys
import time
import traceback
import typing as _t

import ingest_gen
from stats import percentile, ratio

#: ``CampaignConfig`` arguments per campaign workload (seed added per round).
CAMPAIGNS: dict[str, dict] = {
    "campaign_paper": {"runs_per_fault": 20, "large_cluster_runs": 4},
    "campaign_degraded": {
        "runs_per_fault": 12, "large_cluster_runs": 0, "chaos_profile": "severe", "recover": True,
    },
    "campaign_traced": {"runs_per_fault": 20, "large_cluster_runs": 4, "trace": True},
}

#: Timed rounds at the benchmark's ``run_seconds``; sized on the reference
#: host so that the timed rounds of each workload take about that long.
ROUNDS = {"campaign_paper": 3, "campaign_degraded": 5, "campaign_traced": 3, "ingest_replay": 10}

#: The host's speed moves by a quarter and more for tens of seconds at a
#: time (shared cores), which no bound survives.  A burst of a fixed
#: calibration kernel is timed off the clock around every op, and each op's
#: wall time is scaled to a host that runs the kernel at the reference rate.
#: The kernel touches none of the program under test, so it moves with the
#: host and never with a change to the program.
CALIBRATION_BURST = 1_000
CALIBRATION_REFERENCE = 5.0e5  # kernel iterations per second

#: Fleet episodes per ``ingest_replay`` round.
EPISODES = 80
#: Episodes replayed by the ingest warm-up.
WARMUP_EPISODES = 5

WORKLOADS = (*CAMPAIGNS, "ingest_replay")


class _Cell:
    __slots__ = ("count", "payload")

    def __init__(self, count: int, payload: dict) -> None:
        self.count = count
        self.payload = payload

    def bump(self) -> int:
        self.count += 1
        return self.count


def _echo() -> _t.Generator[int, int, None]:
    value = 0
    while True:
        value = yield value + 1


def calibration_rate(tracer=None) -> float:
    """Iterations per second of one burst of the calibration kernel.

    The kernel does what the interpreter does all day in the program under
    test — small dicts, f-strings, slotted objects, method calls, a heap,
    a generator resumed per step — because a host slowed by its
    neighbours slows that kind of code more than a tight integer loop
    (measured on the same runs: ten-seed spread of ``ops_per_s`` on
    ``campaign_degraded`` 41 % raw, 11 % scaled by an integer loop, 3 %
    scaled by this kernel).
    """
    if tracer is not None:
        # Booked to the harness, not to whichever layer's span is open.
        with tracer.span("calibration", "harness"):
            return calibration_rate()
    start = time.perf_counter()
    heap: list[tuple] = []
    kept = []
    echo = _echo()
    next(echo)
    for i in range(CALIBRATION_BURST):
        item = {"id": f"i-{i:08x}", "state": "running", "tags": [i, i + 1], "at": i * 0.5}
        cell = _Cell(i, item)
        cell.bump()
        heapq.heappush(heap, (item["at"], i, cell))
        echo.send(i)
        if i % 3 == 0:
            kept.append(dict(item))
        if len(heap) > 64:
            heapq.heappop(heap)
        sorted(item)
        item["id"].partition("-")
    return CALIBRATION_BURST / (time.perf_counter() - start)


@dataclasses.dataclass
class RoundResult:
    #: Identity of the inputs: equal keys must give equal digests.
    key: str
    ops: int
    #: Raw seconds on the clock (for ``ingest_replay``, the emit loops only).
    wall_s: float
    #: Raw per-op wall times.
    raw_op_ms: list[float]
    #: Calibration bursts: one before the first op, one after each op.
    host_rates: list[float]
    crashed: int
    digest: str
    #: Outcome counters, summed over the timed rounds by the runner.
    counts: collections.Counter
    #: Outcome samples (virtual-clock durations), pooled the same way.
    samples: dict[str, list[float]]

    @functools.cached_property
    def op_ms(self) -> list[float]:
        """Per-op wall times at the reference host speed."""
        rates = self.host_rates
        return [
            raw * (rates[i] + rates[i + 1]) / (2 * CALIBRATION_REFERENCE)
            for i, raw in enumerate(self.raw_op_ms)
        ]

    @property
    def norm_wall_s(self) -> float:
        return sum(self.op_ms) / 1e3


def _plain(value: _t.Any) -> _t.Any:
    if dataclasses.is_dataclass(value):
        # Field by field, not asdict(): no deep copy of a traced outcome's spans.
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    return str(value)


def _sha256(payload: _t.Any) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _median_or_zero(values: list[float], fraction: float = 0.5) -> float:
    return percentile(values, fraction) if values else 0.0


# -- campaigns ---------------------------------------------------------------


class CampaignWorkload:
    """An op is one campaign run (fresh testbed, one upgrade, one fault)."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.flags = dict(CAMPAIGNS[name])
        if quick:
            self.flags["runs_per_fault"] = max(1, self.flags["runs_per_fault"] // 8)
            self.flags["large_cluster_runs"] = min(1, self.flags["large_cluster_runs"])
        # The warm-up campaign: every fault type once on each cluster size
        # the workload uses.
        large = min(1, self.flags["large_cluster_runs"])
        self.warmup_flags = {**self.flags, "runs_per_fault": 1 + large, "large_cluster_runs": large}

    def setup(self) -> None:
        from repro.evaluation.parallel import warm_worker

        warm_worker()  # shared profile, compiled model, fault trees, probes

    def round_seed(self, index: int) -> int:
        # Round 0 is the campaign at the seed itself (seed 2014 is the
        # paper's); later rounds run other campaigns of the same shape, so
        # a run measures several hundred distinct ops.
        return self.seed if index == 0 else self.seed * 1000 + index

    def warmup(self) -> RoundResult:
        return self._run(self.warmup_flags, self.seed, "warmup", None)

    def round(self, index: int, tracer=None) -> RoundResult:
        seed = self.round_seed(index)
        return self._run(self.flags, seed, f"seed-{seed}", tracer)

    def _run(self, flags: dict, seed: int, key: str, tracer) -> RoundResult:
        from repro.evaluation import Campaign, CampaignConfig

        campaign = Campaign(CampaignConfig(seed=seed, **flags))
        raw_op_ms: list[float] = []
        last = 0.0

        def progress(done: int, total: int, outcome) -> None:
            nonlocal last
            raw_op_ms.append((time.perf_counter() - last) * 1e3)
            host_rates.append(calibration_rate(tracer))
            if tracer is not None:
                tracer.op = done
            last = time.perf_counter()

        gc.collect()
        if tracer is not None:
            tracer.op = 0
        host_rates = [calibration_rate()]
        last = time.perf_counter()
        outcomes = campaign.run(progress=progress, max_workers=1)
        counts, samples = _tally_outcomes(outcomes)
        for outcome in outcomes:
            if outcome.failed:
                print(f"{self.name}: {outcome.spec.run_id} crashed:\n{outcome.error}",
                      file=sys.stderr)
        return RoundResult(
            key=key,
            ops=len(outcomes),
            wall_s=sum(raw_op_ms) / 1e3,
            raw_op_ms=raw_op_ms,
            host_rates=host_rates,
            crashed=counts["crashed"],
            digest=_sha256(outcomes),
            counts=counts,
            samples=samples,
        )

    # -- scoring -----------------------------------------------------------

    @staticmethod
    def accuracy(counts: collections.Counter) -> dict[str, float]:
        reported = counts["true_positives"] + counts["false_positives"]
        return {
            "detect_recall": ratio(counts["detected"], counts["injected"]),
            "detect_precision": ratio(counts["true_positives"], reported),
            "verdict_accuracy": ratio(counts["correct_diagnoses"], reported),
        }

    @staticmethod
    def outcome_layer_metrics(counts: collections.Counter, samples: dict) -> dict[str, float]:
        """Per-layer metrics read off outcome counters of the timed rounds."""
        ops = counts["ops"]
        durations = samples.get("diagnosis_s", [])
        return {
            "cloud.stale_read_frac": ratio(
                counts["cloud.reads.stale"], counts["cloud.reads.stale"] + counts["cloud.reads.fresh"]
            ),
            "cloud.snapshot_shared_frac": ratio(
                counts["cloud.snapshot.shared"],
                counts["cloud.snapshot.shared"] + counts["cloud.snapshot.copied"],
            ),
            "assertions.retries_per_call": ratio(counts["retries"], counts["calls"]),
            "assertions.timeouts_per_op": ratio(counts["timeouts"], ops),
            "assertions.breaker_trips_per_op": ratio(counts["breaker_trips"], ops),
            "diagnosis.reports_per_op": ratio(counts["reports"], ops),
            "diagnosis.tests_per_report": ratio(counts["tests"], counts["reports"]),
            "diagnosis.degraded_test_frac": ratio(counts["degraded_tests"], counts["tests"]),
            "diagnosis.confirmed_frac": ratio(counts["confirmed_reports"], counts["reports"]),
            "diagnosis.virtual_s_p50": _median_or_zero(durations),
            "diagnosis.virtual_s_p95": _median_or_zero(durations, 0.95),
            "recovery.attempts_per_op": ratio(counts["recovery_attempts"], ops),
            "recovery.actions_per_attempt": ratio(
                counts["recovery_actions"], counts["recovery_attempts"]
            ),
            "recovery.recovered_frac": ratio(counts["recovered"], counts["recovery_attempts"]),
            "recovery.mttr_virtual_s_p50": _median_or_zero(samples.get("mttr_s", [])),
            "obs.spans_per_op": ratio(counts["obs_spans"], ops),
        }

    def traced_extras(self, round0: RoundResult) -> dict[str, float]:
        """Metrics that need a run of their own beside the traced round."""
        overhead = 1.0
        if self.flags.get("trace"):
            # Same specs with the product's tracing off: the base of the ratio.
            plain = self._run({**self.flags, "trace": False}, self.round_seed(0), "plain", None)
            overhead = ratio(round0.norm_wall_s, plain.norm_wall_s)
        return {"obs.enabled_overhead_ratio": overhead, "logsys.parse_lines_per_s": 0.0}


def _tally_outcomes(outcomes) -> tuple[collections.Counter, dict[str, list[float]]]:
    from repro.evaluation import compute_metrics

    # Table I of the paper, as the repo's own scorer counts it.
    metrics = compute_metrics(outcomes)
    counts = collections.Counter({
        "ops": metrics.total_runs,
        "crashed": metrics.failed_runs,
        "injected": metrics.faults_injected,
        "detected": metrics.faults_detected,
        "true_positives": metrics.tp,
        "false_positives": metrics.false_positives,
        "correct_diagnoses": metrics.correct_diagnoses,
        "reports": len(metrics.diagnosis_times),
        "degraded_tests": metrics.degraded_verdicts,
        "recovery_attempts": metrics.recovery_attempted,
        "recovered": metrics.recovered_runs,
        **metrics.api_health,
    })
    for outcome in outcomes:
        for report in outcome.reports:
            counts["tests"] += report.test_count
            counts["confirmed_reports"] += any(s == "confirmed" for _n, s in report.causes)
        if outcome.recovery:
            counts["recovery_actions"] += len(outcome.recovery["actions"])
        if outcome.trace:
            counts["obs_spans"] += len(outcome.trace)
    return counts, {"diagnosis_s": metrics.diagnosis_times, "mttr_s": metrics.mttr_values}


# -- ingest_replay -----------------------------------------------------------


class IngestWorkload:
    """An op is one fleet episode: 8 interleaved operation logs.

    Each stream is watched by a ``LocalLogProcessor`` wired as
    ``PODDiagnosis.watch`` wires it, minus the simulator: no timers, and a
    counting stub where assertion evaluation would start.  The eight
    processors of an episode share one ``ConformanceChecker`` and one
    ``CentralLogStorage``.  Records are
    delivered one at a time with ``LogStream.emit`` — the live subscriber
    path, not ``process_batch``.
    """

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.episode_count = EPISODES // 8 if quick else EPISODES
        self.episodes: list[ingest_gen.Episode] = []

    def setup(self) -> None:
        from repro.operations.profile import shared_rolling_upgrade_profile
        from repro.process.compiled import compile_model

        compile_model(shared_rolling_upgrade_profile().model)
        self.episodes = ingest_gen.build_episodes(self.seed, self.episode_count)

    def warmup(self) -> RoundResult:
        return self._replay(self.episodes[:WARMUP_EPISODES], "warmup", None)

    def round(self, index: int, tracer=None) -> RoundResult:
        # Every round replays the same episodes, so every digest must match.
        return self._replay(self.episodes, "episodes", tracer)

    def _replay(self, episodes: list[ingest_gen.Episode], key: str, tracer) -> RoundResult:
        from repro.logsys import (
            CentralLogStorage, LocalLogProcessor, LogRecord, LogStream, NoiseFilter,
            ProcessAnnotator, Trigger,
        )
        from repro.operations.profile import shared_rolling_upgrade_profile
        from repro.operations.rolling_upgrade import standard_bindings
        from repro.process.conformance import ConformanceChecker

        profile = shared_rolling_upgrade_profile()
        counts: collections.Counter = collections.Counter()
        verdicts: dict[str, list[str]] = {}

        def count_assertion_trigger(record, assertion_ids) -> None:
            counts["assertion_triggers"] += 1

        raw_op_ms: list[float] = []
        gc.collect()
        host_rates = [calibration_rate()]
        for index, episode in enumerate(episodes):
            # A fresh fleet per episode, like a fresh testbed per campaign run:
            # an op's cost must not depend on its place in the round (one
            # store for the whole round put full GC passes over ~10^5
            # records on or off the clock by chance: 71-110 ops/s by seed).
            # Wiring and fresh records are built off the clock.
            storage = CentralLogStorage()
            checker = ConformanceChecker(profile.model, profile.library, storage=storage)
            streams = [LogStream(f"node-{node}.log") for node in range(ingest_gen.FLEET)]
            processors = []
            for node, stream in enumerate(streams):
                processor = LocalLogProcessor(
                    noise_filter=NoiseFilter(profile.library, passthrough_unmatched=True),
                    process_annotator=ProcessAnnotator(
                        profile.library, profile.model.model_id, _trace_id(index, node)
                    ),
                    assertion_annotator=standard_bindings(),
                    trigger=Trigger(conformance=checker.check, assertions=count_assertion_trigger),
                    storage=storage,
                )
                processor.attach(stream)
                processors.append(processor)
            deliveries = [
                (streams[node], LogRecord(time=when, source=streams[node].name, message=message))
                for when, node, message in episode.lines
            ]
            if tracer is not None:
                tracer.op = index
                root = tracer.span("episode", "harness")
            else:
                root = contextlib.nullcontext()
            # The previous fleet is cyclic garbage of the harness's making;
            # without this, a 50 ms full pass lands on every tenth episode's
            # clock or beside it by chance.
            gc.collect()
            start = time.perf_counter()
            try:
                with root:
                    for stream, record in deliveries:
                        stream.emit(record)
            except Exception:
                counts["crashed"] += 1
                print(f"{self.name}: episode {index} crashed:", file=sys.stderr)
                traceback.print_exc()
            raw_op_ms.append((time.perf_counter() - start) * 1e3)
            host_rates.append(calibration_rate())
            counts["records"] += len(deliveries)
            counts["shipped"] += sum(p.shipped_count for p in processors)
            for result in checker.results:
                verdicts.setdefault(result.trace_id, []).append(result.status)

        for index, episode in enumerate(episodes):
            for node, label in enumerate(episode.labels):
                seen = {s for s in verdicts.get(_trace_id(index, node), ()) if s != "fit"}
                counts["traces"] += 1
                counts["deviant"] += bool(label)
                counts["deviant_flagged"] += bool(label and seen)
                counts["flagged"] += bool(seen)
                counts["flagged_deviant"] += bool(seen and label)
                counts["exact"] += seen == label
        counts["ops"] = len(episodes)
        return RoundResult(
            key=key,
            ops=len(episodes),
            wall_s=sum(raw_op_ms) / 1e3,
            raw_op_ms=raw_op_ms,
            host_rates=host_rates,
            crashed=counts["crashed"],
            digest=_sha256({"verdicts": verdicts, "shipped": counts["shipped"]}),
            counts=counts,
            samples={},
        )

    # -- scoring -----------------------------------------------------------

    @staticmethod
    def accuracy(counts: collections.Counter) -> dict[str, float]:
        return {
            "detect_recall": ratio(counts["deviant_flagged"], counts["deviant"]),
            "detect_precision": ratio(counts["flagged_deviant"], counts["flagged"]),
            "verdict_accuracy": ratio(counts["exact"], counts["traces"]),
        }

    @staticmethod
    def outcome_layer_metrics(counts: collections.Counter, samples: dict) -> dict[str, float]:
        # No simulator, no diagnosis, no recovery: those layers do no work.
        return dict.fromkeys(CampaignWorkload.outcome_layer_metrics(counts, samples), 0.0)

    def traced_extras(self, round0: RoundResult) -> dict[str, float]:
        from repro.logsys.ingest import read_log

        epoch = datetime.datetime(2013, 11, 19, 11, 48)
        text = [
            f"[{(epoch + datetime.timedelta(seconds=when)).strftime('%Y-%m-%d %H:%M:%S,%f')[:-3]}]"
            f" {message}"
            for episode in self.episodes[:20]
            for when, _node, message in episode.lines
        ]
        start = time.perf_counter()
        records = read_log(text)
        elapsed = time.perf_counter() - start
        if len(records) != len(text):
            raise RuntimeError(f"read_log returned {len(records)} records for {len(text)} lines")
        return {
            "obs.enabled_overhead_ratio": 1.0,
            "logsys.parse_lines_per_s": len(text) / elapsed,
        }


def _trace_id(episode: int, node: int) -> str:
    return f"ep{episode}-node{node}"


def make(name: str, seed: int, quick: bool) -> CampaignWorkload | IngestWorkload:
    if name in CAMPAIGNS:
        return CampaignWorkload(name, seed, quick)
    if name == "ingest_replay":
        return IngestWorkload(name, seed, quick)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")

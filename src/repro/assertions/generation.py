"""Automatic assertion generation (the paper's future work, §VIII).

"We plan to automate the generation of assertions."  Given a process
model and the operation's parameter schema, this module derives a
sensible default assertion set and its step bindings:

- steps whose log lines carry an ``instanceid`` field get the low-level
  per-instance configuration assertion;
- steps that complete a unit of work (loop-closing activities) get the
  high-level count + availability assertions;
- the final activity gets the version-aware count, the configuration
  check, and existence checks for every referenced resource;
- every step-gap is covered by the watchdog with an interval calibrated
  from a supplied historical gap sample (95th percentile, §IV).

The output is expressed as assertion-spec strings (see
:mod:`repro.assertions.spec`) plus an :class:`AssertionAnnotator`, so the
generated artifacts are inspectable and hand-editable — generation is a
starting point, not a black box.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.logsys.annotator import AssertionAnnotator
from repro.logsys.patterns import PatternLibrary, classify_record
from repro.process.model import ProcessModel


@dataclasses.dataclass
class GeneratedAssertions:
    """The generation result: specs, bindings, watchdog calibration."""

    specs: list[str]
    bindings: AssertionAnnotator
    watchdog_interval: float
    watchdog_slack: float
    notes: list[str]


def _loop_closers(model: ProcessModel) -> set[str]:
    """Activities with a back edge (they end one loop iteration)."""
    closers: set[str] = set()
    for source, target in model.edges:
        # A back edge reaches an activity that can also reach the source.
        if model.shortest_path([target], source) is not None and source != target:
            closers.add(source)
    return closers


def _final_activities(model: ProcessModel) -> set[str]:
    return set(model.end_activities)


def _steps_with_field(library: PatternLibrary, field: str) -> set[str]:
    """Activities whose regex extracts a given named group."""
    steps: set[str] = set()
    for pattern in library:
        if f"(?P<{field}>" in pattern.regex:
            steps.add(pattern.activity)
    return steps


def calibrate_watchdog(gap_samples: _t.Sequence[float]) -> tuple[float, float]:
    """95th-percentile calibration from historical step gaps (§IV).

    Returns (interval, slack).  Requires at least 10 samples — with fewer
    the percentile is meaningless and the caller should fall back to a
    hand-set value.
    """
    if len(gap_samples) < 10:
        raise ValueError("need at least 10 historical gap samples to calibrate")
    ordered = sorted(gap_samples)
    index = min(len(ordered) - 1, int(math.ceil(0.95 * len(ordered))) - 1)
    interval = ordered[index]
    return interval, interval * 0.06


def generate_assertions(
    model: ProcessModel,
    library: PatternLibrary,
    gap_samples: _t.Sequence[float] = (),
) -> GeneratedAssertions:
    """Derive the default assertion set for an operation process."""
    specs: list[str] = []
    notes: list[str] = []
    bindings = AssertionAnnotator()

    instance_steps = _steps_with_field(library, "instanceid")
    closers = _loop_closers(model) & instance_steps
    finals = _final_activities(model)

    # Low-level per-instance checks wherever an instance id is observable
    # at the end of a step.
    for activity in sorted(closers):
        specs.append("instance $instanceid matches target configuration")
        bindings.bind(activity, "end", ["new-instance-correct-version"])
        notes.append(f"{activity}: instanceid observable -> per-instance config check")

    # High-level fleet checks at each loop close.
    for activity in sorted(closers):
        specs.append("asg {asg_name} has {desired_capacity} running instances")
        specs.append("elb {elb_name} serves at least {min_in_service} instances")
        bindings.bind(activity, "end", ["asg-has-n-instances", "elb-has-registered-instances"])
        notes.append(f"{activity}: loop-closing -> fleet count + availability floor")

    # Final regression checks: version-aware count, config, existence of
    # every referenced resource kind the library mentions.
    for activity in sorted(finals):
        specs.append("asg {asg_name} has {desired_capacity} running instances")
        bindings.bind(
            activity,
            "end",
            [
                "asg-has-n-new-version-instances",
                "asg-uses-correct-config",
                "elb-has-registered-instances",
            ],
        )
        existence = []
        if _steps_with_field(library, "amiid"):
            specs.append("resource ami {expected_image_id} exists")
            existence.append("ami-exists")
        specs.append("resource key_pair {expected_key_name} exists")
        existence.append("key-pair-exists")
        specs.append("resource security_group {expected_security_group} exists")
        existence.append("security-group-exists")
        if _steps_with_field(library, "elbid"):
            specs.append("resource load_balancer {elb_name} exists")
            existence.append("load-balancer-exists")
        bindings.bind(activity, "end", existence)
        notes.append(f"{activity}: final -> version count + config + resource existence")

    if gap_samples and len(gap_samples) >= 10:
        interval, slack = calibrate_watchdog(gap_samples)
        notes.append(
            f"watchdog calibrated from {len(gap_samples)} historical gaps:"
            f" p95={interval:.1f}s"
        )
    else:
        from repro.operations.rolling_upgrade import (
            DEFAULT_WATCHDOG_INTERVAL,
            DEFAULT_WATCHDOG_SLACK,
        )

        interval, slack = DEFAULT_WATCHDOG_INTERVAL, DEFAULT_WATCHDOG_SLACK
        notes.append("watchdog: no historical samples, using defaults")

    # Deduplicate specs while preserving order.
    seen: set[str] = set()
    unique_specs = []
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique_specs.append(spec)

    return GeneratedAssertions(
        specs=unique_specs,
        bindings=bindings,
        watchdog_interval=interval,
        watchdog_slack=slack,
        notes=notes,
    )


def measure_step_gaps(stream_records: _t.Iterable, library: PatternLibrary) -> list[float]:
    """Historical gap samples: time between consecutive end-position
    lines of one operation log (the data §IV calibrates timeouts from)."""
    gaps: list[float] = []
    last_end: float | None = None
    for record in stream_records:
        # Classify-once: stream records that already went through the
        # pipeline carry their classification; fresh ones get memoised.
        classification = classify_record(library, record)
        if not classification.matched:
            continue
        if classification.pattern.position != "end":
            continue
        if last_end is not None:
            gaps.append(record.time - last_end)
        last_end = record.time
    return gaps

"""Seeded corpus for ``ingest_replay``: fleet episodes with labelled deviations.

Set-up simulates a handful of rolling upgrades (4- and 20-instance,
clean and faulty) and keeps their operation logs as *base logs*.  An
episode interleaves :data:`FLEET` of them, one per operation node, adds
chatter the noise filter must drop, and — in a seeded third of the
traces — injects one deviation whose conformance verdict is known in
advance.  The labels are made here, from the generator's own choices,
never by asking the checker.

The program under test only ever sees the generated lines.
"""

from __future__ import annotations

import dataclasses
import random

#: Operation nodes (log streams) per episode.
FLEET = 8

#: (cluster size, injected fault) of each simulated base log.
BASE_RECIPE: tuple[tuple[int, str | None], ...] = (
    (4, None),
    (4, None),
    (4, None),
    (4, "AMI_CHANGED"),
    (4, "AMI_UNAVAILABLE"),
    (4, "KEYPAIR_UNAVAILABLE"),
    (4, "ELB_UNAVAILABLE"),
    (20, None),
    (20, None),
    (20, "SG_WRONG"),
    (20, "SG_UNAVAILABLE"),
    (20, "ELB_UNAVAILABLE"),
)

#: Share of traces that get an injected deviation.
DEVIANT_SHARE = 1 / 3
#: Chatter lines added per base line, on average (the base logs already
#: carry about one DEBUG polling line per step line).
CHATTER_RATE = 0.3

#: Conformance statuses, as the checker spells them.
UNFIT, ERROR, UNCLASSIFIED = "unfit", "error", "unclassified"

#: Dropping this (unique, mandatory) step line leaves the next step
#: without its input token: exactly one ``unfit`` verdict.
_DROPPED_STEP = "Sorted "
_ERROR_MARK = "Exception during"

#: Lines the noise filter drops.  Half are near misses: a real step line's
#: text behind a DEBUG/TRACE marker, which a literal prefilter alone would
#: let through.
_CHATTER = (
    "DEBUG com.netflix.asgard.Task Terminating instance i-{n:08x} in group asg-dsn (dry run)",
    "DEBUG com.netflix.asgard.Task Status info: {k} of 4 instance relaunches done (cached)",
    "TRACE http-client GET /?Action=DescribeAutoScalingGroups 200 in {k}ms",
    "TRACE com.netflix.asgard.Task Instance i-{n:08x} is ready for use in group asg-dsn. (stale)",
    "heartbeat from logstash agent on node-{k} seq={n}",
    "DEBUG com.netflix.asgard.Task polling asg-dsn for status",
)
_FOREIGN = "Unrecognized maintenance notice {n:04x} received for host ip-10-0-{k}-7"
_EXCEPTION = "Exception during bench-injected step {n:04x}: connection reset by peer"


@dataclasses.dataclass
class Episode:
    """One op: :data:`FLEET` interleaved operation logs."""

    #: ``(time, stream index, message)`` in delivery order.
    lines: list[tuple[float, int, str]]
    #: Per stream: the non-``fit`` statuses its trace must end up with.
    labels: list[frozenset[str]]


def simulate_base_logs(seed: int) -> list[list[tuple[float, str]]]:
    """Run each recipe entry's upgrade; return ``(time, message)`` logs."""
    from repro.evaluation.faults import FaultPlan, schedule_fault
    from repro.testbed import Testbed

    rng = random.Random(seed)
    logs = []
    for index, (cluster_size, fault) in enumerate(BASE_RECIPE):
        testbed = Testbed(
            cluster_size=cluster_size,
            seed=seed * 1000 + index,
            max_instances=40 if cluster_size <= 4 else 64,
        )
        if fault is not None:
            inject_at = rng.uniform(20.0, 200.0 if cluster_size <= 4 else 500.0)
            schedule_fault(testbed, FaultPlan(fault_type=fault, inject_at=inject_at))
        testbed.run_upgrade(trace_id=f"base-{index}")
        logs.append([(record.time, record.message) for record in testbed.stream.records])
    return logs


def _inherent_label(log: list[tuple[float, str]]) -> set[str]:
    # A failed upgrade logs its own "Exception during ..." line.
    return {ERROR} if any(_ERROR_MARK in message for _time, message in log) else set()


def _is_step_line(message: str) -> bool:
    # Base logs hold step lines, DEBUG polling lines and error lines only.
    return not message.startswith("DEBUG") and _ERROR_MARK not in message


def _insert(lines: list[tuple[float, str]], rng: random.Random, message: str) -> None:
    # After the start line, so the trace exists before the odd line shows.
    position = rng.randrange(1, len(lines) + 1)
    time = lines[position - 1][0]
    lines.insert(position, (time, message))


def build_episode(
    base_logs: list[list[tuple[float, str]]], seed: int, index: int
) -> Episode:
    rng = random.Random(seed * 1_000_003 + index)
    merged: list[tuple[float, int, int, str]] = []
    labels: list[frozenset[str]] = []
    for stream, base_index in enumerate(rng.sample(range(len(base_logs)), FLEET)):
        log = list(base_logs[base_index])
        label = _inherent_label(log)
        if rng.random() < DEVIANT_SHARE:
            kind = rng.choice((UNFIT, ERROR, UNCLASSIFIED))
            if kind == UNFIT:
                dropped = [i for i, (_t, m) in enumerate(log) if m.startswith(_DROPPED_STEP)]
                if dropped:
                    del log[dropped[0]]
                    # Only unfit if a later step line follows the gap.
                    if any(_is_step_line(m) for _t, m in log[dropped[0]:]):
                        label.add(UNFIT)
            elif kind == ERROR:
                _insert(log, rng, _EXCEPTION.format(n=rng.randrange(1 << 16)))
                label.add(ERROR)
            else:
                _insert(
                    log, rng, _FOREIGN.format(n=rng.randrange(1 << 16), k=rng.randrange(256))
                )
                label.add(UNCLASSIFIED)
        offset = rng.uniform(0.0, 60.0)
        sequence = 0
        for time, message in log:
            merged.append((time + offset, stream, sequence, message))
            sequence += 1
            if rng.random() < CHATTER_RATE:
                chatter = rng.choice(_CHATTER).format(n=rng.randrange(1 << 24), k=rng.randrange(9))
                merged.append((time + offset, stream, sequence, chatter))
                sequence += 1
        labels.append(frozenset(label))
    merged.sort()
    return Episode([(time, stream, message) for time, stream, _seq, message in merged], labels)


def build_episodes(seed: int, count: int) -> list[Episode]:
    base_logs = simulate_base_logs(seed)
    return [build_episode(base_logs, seed, index) for index in range(count)]

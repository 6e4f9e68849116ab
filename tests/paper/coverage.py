"""The fault-tree coverage table: why each node, leaf or cause id that
the seed-2014 campaign does not exercise is kept.

``tests/paper/test_walk_replay.py`` counts the campaign's visits and
root causes per (tree id, node id) and fails a missing or stale node or
cause row; ``tests/recovery/test_plan.py`` fails a missing or stale row
for a leaf with no ``CATALOG`` row.
"""

#: Why a row keeps what the campaign does not exercise.
KINDS: dict[str, str] = {
    "paper": "a node the paper's Fig. 5 tree shows; the file is its ablation",
    "spec": "a test or spec reaches it; the file is that test",
    "unreachable": "no fault class reaches it; the file says what would",
}

#: ``tree id/node id`` for a node, the bare id for a cause no node
#: confirms or a leaf with no ``CATALOG`` row -> (kind, the file — ``path``
#: or ``path::test`` from the repository root — and why).
COVERAGE: dict[str, tuple[str, str, str]] = {
    # Never visited.
    **{
        f"asg-instance-count/{leaf}": (
            "paper", "tests/paper/test_ablations.py::test_ablation_context_pruning",
            "below create-lc-fails, which no campaign fault confirms: every fault fires"
            " after the launch configuration exists.  The pruning ablation's 14 -> 11"
            " potential faults count it; an injection before that step (ROADMAP 22,"
            " k = 0) would reach it",
        )
        for leaf in ("lc-ami-missing", "lc-key-missing", "lc-sg-missing")
    },
    # Visited, never confirmed.
    "elb-registration/instance-unhealthy": (
        "unreachable", "ROADMAP.md",
        "no fault class makes a registered instance fail its health check; that class"
        " is parked with the performance-fault plane",
    ),
    "elb-registration/account-limit-exceeded": (
        "spec", "tests/diagnosis/test_probes.py",
        "the shared launch-failure leaf, confirmed under asg-instance-count and"
        " process-deviation by the same probe; in the one run where the account limit"
        " binds and ELB registration fails, its looks found no limit-exceeded activity",
    ),
    "elb-registration/termination-author": (
        "spec", "tests/diagnosis/test_offline.py",
        "CloudTrail delivers late, so online attribution is mostly inconclusive (it"
        " confirms under the other two trees); the three looks under this tree found"
        " no delivered record",
    ),
    # A scoring or remediation id that no node confirms.
    "elb-registration-failure": (
        "unreachable", "ROADMAP.md",
        "an inner node names itself only undetermined: registered instances short"
        " while the ELB exists, which takes the parked health-check fault class",
    ),
    "instance-terminated-externally": (
        "spec", "tests/diagnosis/test_offline.py",
        "an inner node names itself only undetermined, when no CloudTrail record"
        " names the author yet; its catalog row is that cause's advisory",
    ),
    # A leaf with no catalog row: evidence of what happened, not a fix.
    "instance-unhealthy": (
        "unreachable", "ROADMAP.md",
        "evidence, not a fix: the advice is its sibling launch and capacity causes'",
    ),
    "termination-author": (
        "spec", "tests/diagnosis/test_offline.py",
        "evidence, not a fix: the advice is its parent's, instance-terminated-externally",
    ),
}

"""Prefiltered pattern dispatch: prefilter soundness + linear-scan equivalence."""

import random

from repro.logsys.patterns import (
    END,
    PROGRESS,
    LogPattern,
    PatternLibrary,
    guard_literals,
    literal_runs,
    required_literal,
)

from .reference_scan import linear_scan


class TestLiteralExtraction:
    def test_plain_literal_regex(self):
        assert literal_runs("rolling upgrade started") == ["rolling upgrade started"]

    def test_named_group_contents_stay_contiguous(self):
        # Group literals sit on the required path: the run extends into
        # the group ("...instance i-") and breaks only at the \w+ repeat.
        runs = literal_runs(r"Terminating instance (?P<id>i-\w+) in group")
        assert "Terminating instance i-" in runs
        assert " in group" in runs

    def test_optional_repeat_contributes_nothing(self):
        # "s?" makes the "s" conditional; only the guaranteed parts remain.
        assert literal_runs(r"instances? ready") == ["instance", " ready"]

    def test_required_repeat_body_is_kept_separately(self):
        runs = literal_runs(r"go(?:od)+bye")
        assert "go" in runs and "od" in runs and "bye" in runs

    def test_branch_contributes_nothing(self):
        assert literal_runs(r"state (?:up|down) now") == ["state ", " now"]

    def test_ignorecase_disables_extraction(self):
        assert literal_runs(r"(?i)Rolling Upgrade") == []
        assert required_literal(r"(?i)Rolling Upgrade") is None

    def test_scoped_ignorecase_group_is_skipped(self):
        runs = literal_runs(r"prefix (?i:Mixed) suffix")
        assert "Mixed" not in runs and "prefix " in runs

    def test_min_length_filters_short_runs(self):
        assert required_literal(r"a(?P<x>\d+)b") is None
        assert required_literal(r"ab(?P<x>\d+)", min_length=2) == "ab"

    def test_longest_run_wins(self):
        assert required_literal(r"ok: (?P<x>\d+) completed fully") == " completed fully"

    def test_invalid_regex_yields_nothing(self):
        assert literal_runs(r"(unclosed") == []


class TestGuardLiterals:
    def test_alternation_of_literals_gets_one_per_branch(self):
        assert guard_literals(r"alpha|beta|gamma") == ("alpha", "beta", "gamma")

    def test_longest_literal_of_each_branch(self):
        assert guard_literals(r"polling .* for status|heart(?:beat)?") == (" for status", "heart")

    def test_a_branch_without_a_literal_means_no_guard(self):
        assert guard_literals(r"DEBUG|ab") == ()
        assert guard_literals(r"DEBUG|\d+") == ()

    def test_case_folding_means_no_guard(self):
        assert guard_literals(r"(?i)DEBUG|TRACE") == ()

    def test_invalid_regex_means_no_guard(self):
        assert guard_literals(r"(unclosed") == ()

    def test_no_branch_gives_the_required_literal(self):
        regex = r"Terminating instance (?P<id>i-\w+) in group"
        assert guard_literals(regex) == (required_literal(regex),)
        assert guard_literals(r"\d+") == ()

    def test_unguardable_branch_falls_back_to_the_required_literal(self):
        assert guard_literals(r"state (?:up|on) now") == ("state ",)

    def test_factored_prefix_still_guarded(self):
        # sre moves the shared leading \b out of the alternation, leaving
        # the BRANCH second in the top-level sequence.
        assert guard_literals(r"\bDEBUG\b|\bTRACE\b") == ("DEBUG", "TRACE")

    def test_noise_regex_is_guarded(self):
        from repro.logsys.filters import NoiseFilter

        assert guard_literals(NoiseFilter.DROPPED.pattern) == (
            "DEBUG", "TRACE", " for status", "heartbeat"
        )
        assert NoiseFilter.DROPPED_GUARD == guard_literals(NoiseFilter.DROPPED.pattern)


def _overlapping_library():
    """First-match-wins matters: each pattern is a prefix of the previous."""
    return PatternLibrary(
        [
            LogPattern("specific", r"Instance (?P<instanceid>i-\w+) terminated", position=END),
            LogPattern("medium", r"Instance (?P<instanceid>i-\w+)", position=PROGRESS),
            LogPattern("generic", r"Instance", position=PROGRESS),
        ]
    )


class TestCompiledSemantics:
    def test_first_match_wins_with_overlapping_prefixes(self):
        library = _overlapping_library()
        assert library.classify("Instance i-1 terminated").activity == "specific"
        assert library.classify("Instance i-1 launching").activity == "medium"
        assert library.classify("Instance count: 4").activity == "generic"
        assert not library.classify("unrelated").matched

    def test_returns_same_pattern_object_as_naive(self):
        library = _overlapping_library()
        for message in ("Instance i-9 terminated", "Instance i-9", "Instance", "zzz"):
            assert library.classify(message).pattern is linear_scan(library, message).pattern
            assert library.classify(message).fields == linear_scan(library, message).fields

    def test_add_recompiles_plan(self):
        library = PatternLibrary()
        assert library.prefilter_plan() == []
        library.add(LogPattern("late", r"very specific literal here"))
        assert library.prefilter_plan() == [("late", "very specific literal here")]
        assert library.classify("very specific literal here").activity == "late"

    def test_prefilter_only_skips_nonmatching_patterns(self):
        library = _overlapping_library()
        plan = dict(library.prefilter_plan())
        # Every extracted literal actually appears in a line its pattern matches.
        assert plan["specific"] in "Instance i-1 terminated"
        assert plan["generic"] in "Instance i-1 terminated"


#: One realistic line per pattern of the rolling-upgrade library.
_MATCHING_TEMPLATES = (
    "Pushing ami-{i:08x} into group asg-dsn: rolling upgrade task started",
    "Updated launch configuration of group asg-dsn to lc-app-v2 with image ami-{i:08x}",
    "Sorted {n} instances of group asg-dsn for replacement",
    "Deregistered instance i-{i:08x} from load balancer elb-dsn",
    "Terminating instance i-{i:08x} in group asg-dsn",
    "Waiting for group asg-dsn to start a new instance",
    "Status info: {n} of 4 instance relaunches done",
    "Instance i-{i:08x} is ready for use in group asg-dsn. {n} of 4 instance relaunches done",
    "Rolling upgrade task completed for group asg-dsn",
    "Exception during terminate: request failed",
)

#: Chatter the noise filter sees: no pattern can match these.
_NOISE_TEMPLATES = (
    "health check ok for node-{n}",
    "cache refresh finished in {n}ms",
    "scheduler tick {i}",
    "connection pool stats: {n} idle",
)

#: Near misses: share literal fragments with real lines but never match —
#: the prefilter's worst case (literal present, regex still runs).
_NEAR_MISS_TEMPLATES = (
    "instance i-{i:08x} not found in group asg-other",
    "group asg-dsn settings unchanged, skipping launch configuration",
    "load balancer elb-dsn responded slowly",
)


def synthesize_corpus(lines: int, seed: int = 7) -> list[str]:
    """A deterministic mixed log corpus: ~45% matches, ~40% noise, ~15% near misses."""
    rng = random.Random(seed)
    corpus: list[str] = []
    for index in range(lines):
        draw = rng.random()
        if draw < 0.45:
            template = rng.choice(_MATCHING_TEMPLATES)
        elif draw < 0.85:
            template = rng.choice(_NOISE_TEMPLATES)
        else:
            template = rng.choice(_NEAR_MISS_TEMPLATES)
        corpus.append(template.format(i=index, n=rng.randrange(1, 5)))
    return corpus


class TestCorpus:
    def test_deterministic_for_a_seed(self):
        assert synthesize_corpus(500, seed=3) == synthesize_corpus(500, seed=3)
        assert synthesize_corpus(500, seed=3) != synthesize_corpus(500, seed=4)

    def test_mix_contains_matches_and_noise(self):
        from repro.operations.rolling_upgrade import build_pattern_library

        library = build_pattern_library()
        corpus = synthesize_corpus(500, seed=7)
        matched = sum(1 for line in corpus if library.classify(line).matched)
        assert 0.25 < matched / len(corpus) < 0.75


def _corpus():
    """Messages from a real traced upgrade + the synthetic mix."""
    from repro.testbed import Testbed

    testbed = Testbed(cluster_size=4, seed=321)
    testbed.run_upgrade(trace_id="corpus")
    messages = [record.message for record in testbed.stream.records]
    assert messages, "upgrade produced no log lines"
    return messages + synthesize_corpus(400, seed=13)


class TestCorpusEquivalence:
    def test_compiled_agrees_with_naive_on_every_line(self):
        from repro.operations.rolling_upgrade import build_pattern_library

        library = build_pattern_library()
        matched = 0
        for message in _corpus():
            expected = linear_scan(library, message)
            got = library.classify(message)
            # Same *pattern*, not merely the same activity.
            assert got.pattern is expected.pattern, message
            assert got.fields == expected.fields, message
            matched += expected.matched
        assert matched > 0, "corpus exercised no matching lines"

    def test_rolling_upgrade_library_has_usable_prefilters(self):
        from repro.operations.rolling_upgrade import build_pattern_library

        library = build_pattern_library()
        literals = [literal for _a, literal in library.prefilter_plan()]
        assert sum(1 for literal in literals if literal) >= len(literals) * 0.5, (
            "most rolling-upgrade patterns should yield a required literal: "
            f"{library.prefilter_plan()}"
        )

"""Property test: prefiltered dispatch ≡ linear scan on arbitrary input.

Pattern sets are generated from a small shared vocabulary so overlapping
prefixes (the case where first-match-wins order actually matters) occur
constantly, and a slice of every generated message vocabulary overlaps
the pattern vocabulary so matches are frequent, not vanishing.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logsys.patterns import LogPattern, PatternLibrary

from .reference_scan import linear_scan

#: Fragments patterns are assembled from.  Several are prefixes of each
#: other on purpose (``sta`` < ``start`` < ``started``).
_PREFIXES = ["sta", "start", "started", "Instance ", "group asg", "upgrade"]
_MIDDLES = ["", r"(?P<num>\d+)", r"(?P<word>[a-z]+)", r"\s+", r"i-\w+"]
_SUFFIXES = ["", " done", " failed", "d", " of 4"]


@st.composite
def patterns(draw) -> LogPattern:
    index = draw(st.integers(min_value=0, max_value=10**6))
    regex = (
        re.escape(draw(st.sampled_from(_PREFIXES)))
        + draw(st.sampled_from(_MIDDLES))
        + re.escape(draw(st.sampled_from(_SUFFIXES)))
    )
    return LogPattern(f"act-{index}", regex)


#: Messages: arbitrary junk plus concatenations of the pattern vocabulary.
_messages = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda a, n, b: f"{a}{n}{b}",
        st.sampled_from(_PREFIXES),
        st.sampled_from(["", "7", "42", "ready", "i-abc12", " "]),
        st.sampled_from(_SUFFIXES),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    pattern_list=st.lists(patterns(), min_size=1, max_size=8),
    messages=st.lists(_messages, min_size=1, max_size=10),
)
def test_compiled_classify_equals_naive(pattern_list, messages):
    library = PatternLibrary(pattern_list)
    for message in messages:
        expected = linear_scan(library, message)
        got = library.classify(message)
        # Same winning pattern *object* — first-match-wins, not merely
        # any-match — and byte-identical extracted fields.
        assert got.pattern is expected.pattern, (message, pattern_list)
        assert got.fields == expected.fields, (message, pattern_list)


@settings(max_examples=50, deadline=None)
@given(pattern_list=st.lists(patterns(), min_size=1, max_size=6))
def test_incremental_add_matches_bulk_construction(pattern_list):
    bulk = PatternLibrary(pattern_list)
    incremental = PatternLibrary()
    for pattern in pattern_list:
        incremental.add(pattern)
    probe = "started 42 of 4 Instance i-abc12 group asg done"
    assert incremental.classify(probe).pattern is bulk.classify(probe).pattern
    assert incremental.prefilter_plan() == bulk.prefilter_plan()

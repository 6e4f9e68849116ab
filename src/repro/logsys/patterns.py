"""Regex pattern library: log line → process activity + extracted fields.

This is the artifact the paper derives semi-automatically during offline
process mining: "from this information, i.e., sets of log lines and the
corresponding activity names, we derived regular expressions matching the
log lines" (§III.A).  A :class:`LogPattern` binds one regex to an activity
name, a *position* within the activity (start/end/progress), and the named
groups to lift into ``@fields``.

Every pipeline stage funnels through :meth:`PatternLibrary.classify`:
first match wins, in library order.  To keep that cheap, each pattern's
regex is parsed once (with the stdlib's own parser) for a *required
literal* — a substring that must appear in any message the regex
matches — and a pattern whose literal is absent from the message is
skipped with one C-level ``in`` check instead of a regex scan.  A
pattern with no usable literal (or with case-folding flags) is always
tried, so the prefilter only ever skips patterns that provably cannot
match; ``tests/logsys`` holds :meth:`~PatternLibrary.classify` to a
plain linear ``re.search`` scan on a corpus and under hypothesis.  The
same walk gives an alternation one literal per branch
(:func:`guard_literals`), which guards the noise filter's drop regex.
"""

from __future__ import annotations

import dataclasses
import re
import typing as _t

from repro.logsys.record import TagEntry, tag_entry

try:  # Python 3.11+
    from re import _parser as _sre
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse as _sre  # type: ignore[no-redef]

#: Where in its activity a matching line sits. Annotation locations are
#: "typically the beginning or the end of a process step" (§III.A).
START = "start"
END = "end"
PROGRESS = "progress"

#: Literals shorter than this are too unselective to pay for the check.
MIN_LITERAL_LENGTH = 3


def _parse(regex: str):
    """The stdlib parse tree of ``regex``; None if it does not parse or
    case-folds (a literal membership check would then be unsound)."""
    try:
        parsed = _sre.parse(regex)
    except re.error:
        return None
    return None if parsed.state.flags & re.IGNORECASE else parsed


def _walk(nodes: _t.Iterable, runs: list[str], branches: list) -> None:
    """Extend ``runs`` (its last entry is the open run) along the required
    path of ``nodes``; each BRANCH on that path appends its alternatives
    to ``branches``."""
    for op, arg in nodes:
        if op is _sre.LITERAL:
            runs[-1] += chr(arg)
        elif op is _sre.SUBPATTERN and not arg[1] & re.IGNORECASE:
            # (group, add_flags, del_flags, subpattern): contents are
            # contiguous with the surroundings unless flags change.
            _walk(arg[3], runs, branches)
        else:
            # Anything else breaks the run.  A repeat with min >= 1 holds
            # its body's runs on their own; a BRANCH is recorded; IN, ANY,
            # AT, ASSERT, optional repeats, ... contribute nothing.
            runs.append("")
            if op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT) and arg[0] >= 1:
                _walk(arg[2], runs, branches)
                runs.append("")
            elif op is _sre.BRANCH:
                branches.append(arg[1])


def _required_path(nodes: _t.Iterable) -> tuple[list[str], list]:
    """(literal runs, BRANCH alternative lists) on the required path."""
    runs, branches = [""], []
    _walk(nodes, runs, branches)
    return [run for run in runs if run], branches


def _longest(runs: list[str]) -> str | None:
    candidates = [run for run in runs if len(run) >= MIN_LITERAL_LENGTH]
    return max(candidates, key=len) if candidates else None


def literal_runs(regex: str) -> list[str]:
    """Contiguous literal substrings guaranteed to appear in any match.

    Walks the stdlib parse tree of ``regex`` and collects runs of LITERAL
    nodes that sit on the required path: top-level concatenation, plain
    groups, and the bodies of repeats with ``min >= 1`` (as their own
    runs — repeat boundaries are not contiguous with their surroundings).
    Anything conditional (branches, optional repeats, classes, lookaround)
    breaks the run and contributes nothing, so the result is conservative:
    it may miss literals, it never invents one.

    Returns an empty list when nothing usable is found or the pattern
    case-folds.
    """
    parsed = _parse(regex)
    return [] if parsed is None else _required_path(parsed)[0]


def required_literal(regex: str) -> str | None:
    """The most selective (longest) required literal, or None."""
    return _longest(literal_runs(regex))


def guard_literals(regex: str) -> tuple[str, ...]:
    """Literals at least one of which appears in any match of ``regex``.

    For the first BRANCH on the required path whose every alternative has
    a required literal, the longest literal of each alternative (the walk
    finds the BRANCH inside the sequence, where ``sre`` leaves it after
    factoring a prefix shared by all alternatives).  Otherwise the one
    required literal.  ``()`` means no guard: always search.
    """
    parsed = _parse(regex)
    if parsed is None:
        return ()
    runs, branches = _required_path(parsed)
    for alternatives in branches:
        guard = tuple(_longest(_required_path(a)[0]) for a in alternatives)
        if None not in guard:
            return guard
    literal = _longest(runs)
    return () if literal is None else (literal,)


@dataclasses.dataclass
class LogPattern:
    """One transformation rule: if regex matches, tag with activity."""

    activity: str
    regex: str
    position: str = END
    #: True for patterns matching *known error* lines (conformance:error).
    is_error: bool = False
    _compiled: re.Pattern = dataclasses.field(init=False, repr=False)
    #: The tags the process annotator adds to a matching record —
    #: ``step:<activity>``, ``position:<position>``, then ``known-error``
    #: for an error pattern — split once here, not per record.
    entries: tuple[TagEntry, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.position not in (START, END, PROGRESS):
            raise ValueError(f"invalid position {self.position!r}")
        self._compiled = re.compile(self.regex)
        tags = [f"step:{self.activity}", f"position:{self.position}"]
        if self.is_error:
            tags.append("known-error")
        self.entries = tuple(map(tag_entry, tags))

    def match(self, message: str) -> dict | None:
        """Named groups if the regex matches, else None."""
        found = self._compiled.search(message)
        return None if found is None else _fields(found)


def _fields(found: re.Match) -> dict:
    """The named groups of a match, without the ones that did not take
    part (a dict comprehension only when one is missing)."""
    fields = found.groupdict()
    if None in fields.values():
        return {k: v for k, v in fields.items() if v is not None}
    return fields


@dataclasses.dataclass
class Classification:
    """Result of classifying one log line."""

    pattern: LogPattern | None
    fields: dict

    @property
    def matched(self) -> bool:
        return self.pattern is not None

    @property
    def activity(self) -> str | None:
        return self.pattern.activity if self.pattern else None


class PatternLibrary:
    """Ordered collection of patterns for one operation process.

    Order matters: the first matching pattern wins, so more specific
    regexes must precede catch-alls (same discipline Logstash filters use).
    """

    def __init__(self, patterns: _t.Iterable[LogPattern] = ()) -> None:
        self.patterns: list[LogPattern] = []
        #: (pattern, required literal or None, compiled ``search``), in
        #: library order.
        self._plan: list[tuple[LogPattern, str | None, _t.Callable]] = []
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: LogPattern) -> None:
        self.patterns.append(pattern)
        self._plan.append((pattern, required_literal(pattern.regex), pattern._compiled.search))

    def classify(self, message: str) -> Classification:
        for pattern, literal, search in self._plan:
            if literal is not None and literal not in message:
                continue
            found = search(message)
            if found is not None:
                return Classification(pattern, _fields(found))
        return Classification(None, {})

    def prefilter_plan(self) -> list[tuple[str, str | None]]:
        """(activity, required literal) per pattern — introspection aid."""
        return [(pattern.activity, literal) for pattern, literal, _ in self._plan]


def classify_record(library: PatternLibrary, record) -> Classification:
    """Classify-once: classify ``record`` or reuse its attached memo.

    The seed pipeline classified every log line up to four times (noise
    filter, process annotator, conformance checker, assertion-generation
    gap measurement) — each a full scan of the library.  This helper makes
    classification a compute-at-ingest property of the record: the first
    caller pays for the scan, the result rides on the record
    (``record.classification``), and every later stage gets a dict-free
    attribute read.  The memo is only reused when the *same* library
    object produced it, so mixing libraries stays correct.

    Objects that don't accept attributes (plain message carriers in tests)
    are classified without memoisation.
    """
    if getattr(record, "classified_by", None) is library:
        return record.classification
    classification = library.classify(record.message)
    try:
        record.classification = classification
        record.classified_by = library
    except AttributeError:
        pass
    return classification

"""Compiled pattern dispatch: the matching engine's hot path.

The paper's online pipeline must keep up with log ingest (§IV reports
conformance checks "responded on average in about 10ms"), and every stage
of our pipeline funnels through :meth:`PatternLibrary.classify` — a linear
``re.search`` scan over every pattern.  :class:`CompiledPatternLibrary`
keeps the library's exact first-match-wins semantics while making the
common case cheap:

- **Literal prefilter.**  At compile time each pattern's regex is parsed
  (via the stdlib's own parser) and a *required literal* is extracted — a
  substring that must appear in any message the regex matches.  At
  classify time, patterns whose literal is absent are skipped with one
  C-level ``in`` check instead of a full regex scan.  A pattern with no
  usable literal (or with inline case-folding flags) simply gets no
  prefilter and is always tried, so the prefilter can *only* skip
  patterns that provably cannot match.

Because the subclass only ever skips patterns that cannot match, compiled
and naive classification agree on every message — the equivalence is
locked down by a corpus test and a hypothesis property test.
"""

from __future__ import annotations

import re
import typing as _t

try:  # Python 3.11+
    from re import _parser as _sre
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse as _sre  # type: ignore[no-redef]

from repro.logsys.patterns import Classification, LogPattern, PatternLibrary

#: Literals shorter than this are too unselective to pay for the check.
MIN_LITERAL_LENGTH = 3


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
    case-folds (a literal membership check would then be unsound).
    """
    try:
        parsed = _sre.parse(regex)
    except re.error:
        return []
    if parsed.state.flags & re.IGNORECASE:
        return []

    runs: list[str] = []
    current: list[str] = []

    def flush() -> None:
        if current:
            runs.append("".join(current))
            current.clear()

    def walk(nodes: _t.Iterable) -> None:
        for op, arg in nodes:
            if op is _sre.LITERAL:
                current.append(chr(arg))
            elif op is _sre.SUBPATTERN:
                # (group, add_flags, del_flags, subpattern): contents are
                # contiguous with the surroundings unless flags change.
                _group, add_flags, _del_flags, sub = arg
                if add_flags & re.IGNORECASE:
                    flush()
                else:
                    walk(sub)
            elif op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT):
                min_count, _max_count, sub = arg
                flush()
                if min_count >= 1:
                    walk(sub)
                    flush()
            else:
                # BRANCH, IN, ANY, AT, ASSERT, ... — conditional or
                # zero-width content: break the run, contribute nothing.
                flush()

    walk(parsed)
    flush()
    return runs


def required_literal(regex: str, min_length: int = MIN_LITERAL_LENGTH) -> str | None:
    """The most selective (longest) required literal, or None."""
    candidates = [run for run in literal_runs(regex) if len(run) >= min_length]
    if not candidates:
        return None
    return max(candidates, key=len)


class CompiledPatternLibrary(PatternLibrary):
    """A :class:`PatternLibrary` with prefiltered first-match-wins dispatch.

    Drop-in compatible: same constructor shape, same :meth:`classify`
    results (pattern identity, activity, extracted fields), same
    iteration/ordering behaviour.  ``add`` recompiles the dispatch plan,
    so incremental construction still works.
    """

    def __init__(self, patterns: _t.Iterable[LogPattern] = ()) -> None:
        self._plan: list[tuple[LogPattern, str | None]] = []
        super().__init__(patterns)
        self._recompile()

    @classmethod
    def from_library(cls, library: PatternLibrary) -> "CompiledPatternLibrary":
        """Compile an existing library without copying its patterns."""
        if isinstance(library, cls):
            return library
        return cls(library.patterns)

    def add(self, pattern: LogPattern) -> None:
        super().add(pattern)
        self._recompile()

    def _recompile(self) -> None:
        self._plan = [
            (pattern, required_literal(pattern.regex)) for pattern in self.patterns
        ]

    def classify(self, message: str) -> Classification:
        for pattern, literal in self._plan:
            if literal is not None and literal not in message:
                continue
            fields = pattern.match(message)
            if fields is not None:
                return Classification(pattern, fields)
        return Classification(None, {})

    def prefilter_plan(self) -> list[tuple[str, str | None]]:
        """(activity, required literal) per pattern — introspection aid."""
        return [(pattern.activity, literal) for pattern, literal in self._plan]

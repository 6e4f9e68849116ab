"""Noise filter: first stage of the local log processor (Fig. 3).

"Noise filters drop any log line that is not relevant to the current
operation process based on regular expressions" (§III.B.1).  Relevance is
defined by the pattern library *plus* an allowlist of extra regexes (error
lines from other components that should still reach conformance checking
as 'unknown' events rather than be silently dropped).
"""

from __future__ import annotations

import re
import typing as _t

from repro.logsys.patterns import PatternLibrary, classify_record, guard_literals
from repro.logsys.record import LogRecord


class NoiseFilter:
    """Decides whether a record continues down the pipeline."""

    #: Chatter no operator process model cares about: framework polling,
    #: debug/trace output, health-check noise.  One alternation, so a
    #: record costs at most one ``search`` however many kinds of noise
    #: there are.
    DROPPED = re.compile(r"\bDEBUG\b|\bTRACE\b|polling .* for status|heartbeat")
    #: One literal per branch of ``DROPPED``: a line holding none of them
    #: cannot match, so it is never searched.  With no guard, ``""`` (in
    #: every line) sends every line to the search.
    DROPPED_GUARD = guard_literals(DROPPED.pattern) or ("",)

    def __init__(
        self,
        library: PatternLibrary,
        passthrough_regexes: _t.Iterable[str] = (),
        passthrough_unmatched: bool = False,
        obs=None,
    ) -> None:
        self.library = library
        self.passthrough = [re.compile(r) for r in passthrough_regexes]
        #: When tailing the watched operation's *own* log, unmatched lines
        #: are not noise — they are exactly the unusual lines conformance
        #: checking must see (tagged ``conformance:unclassified``).  Noise
        #: is then defined by the drop regexes alone.
        self.passthrough_unmatched = passthrough_unmatched
        self.dropped_count = 0
        self.passed_count = 0
        self._metrics = obs.metrics if obs else None

    def accepts(self, record: LogRecord) -> bool:
        """True if the record is relevant to the operation process.

        The classification computed here is *not* thrown away: it rides on
        the record (classify-once), so the annotator and the conformance
        checker downstream reuse it instead of rescanning the library.
        """
        message = record.message
        for literal in self.DROPPED_GUARD:
            if literal in message:
                if self.DROPPED.search(message):
                    self.dropped_count += 1
                    return False
                break
        if classify_record(self.library, record, self._metrics).matched:
            self.passed_count += 1
            return True
        if self.passthrough_unmatched:
            self.passed_count += 1
            return True
        for regex in self.passthrough:
            if regex.search(message):
                self.passed_count += 1
                return True
        self.dropped_count += 1
        return False

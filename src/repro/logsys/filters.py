"""Noise filter: first stage of the local log processor (Fig. 3).

"Noise filters drop any log line that is not relevant to the current
operation process based on regular expressions" (§III.B.1).  Relevance is
defined by the pattern library; on the watched operation's own log every
line that is not framework chatter is relevant.
"""

from __future__ import annotations

import re

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
        passthrough_unmatched: bool = False,
    ) -> None:
        self.library = library
        #: When tailing the watched operation's *own* log, unmatched lines
        #: are not noise — they are exactly the unusual lines conformance
        #: checking must see (tagged ``conformance:unclassified``).  Noise
        #: is then defined by the drop regexes alone.
        self.passthrough_unmatched = passthrough_unmatched

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
                    return False
                break
        return classify_record(self.library, record).matched or self.passthrough_unmatched

"""The linear scan, kept as the oracle for the prefiltered matcher."""

import re

from repro.logsys.patterns import Classification, PatternLibrary


def linear_scan(library: PatternLibrary, message: str) -> Classification:
    """First pattern whose regex matches — every pattern tried, in order;
    its fields are the named groups that took part in the match."""
    for pattern in library.patterns:
        found = re.search(pattern.regex, message)
        if found is not None:
            return Classification(
                pattern, {k: v for k, v in found.groupdict().items() if v is not None}
            )
    return Classification(None, {})

"""The linear scan, kept as the oracle for the prefiltered matcher."""

from repro.logsys.patterns import Classification, PatternLibrary


def linear_scan(library: PatternLibrary, message: str) -> Classification:
    """First pattern whose regex matches — every pattern tried, in order."""
    for pattern in library.patterns:
        fields = pattern.match(message)
        if fields is not None:
            return Classification(pattern, fields)
    return Classification(None, {})

"""The four separate noise regexes, kept as the oracle for ``NoiseFilter.DROPPED``."""

import re

NOISE_REGEXES = tuple(
    re.compile(regex)
    for regex in (r"\bDEBUG\b", r"\bTRACE\b", r"polling .* for status", r"heartbeat")
)


def is_noise(message: str) -> bool:
    return any(regex.search(message) for regex in NOISE_REGEXES)

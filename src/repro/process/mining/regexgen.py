"""Regex derivation: from a cluster of log lines to a transformation rule.

"From this information, i.e., sets of log lines and the corresponding
activity names, we derived regular expressions matching the log lines, and
formed transformation rules: if (regex_i or regex_i+1 or ...) matches, add
tag [activity name] to the line" (§III.A).

The derivation works on the masked template: literal runs are escaped,
placeholders become typed named capture groups.  Group names follow the
paper's @fields keys (``amiid``, ``instanceid``, ``asgid``, ``num``...).
"""

from __future__ import annotations

import re

from repro.logsys.patterns import END, LogPattern
from repro.process.mining.cluster import LogCluster, mask_line

#: placeholder -> (base group name, sub-regex)
GROUP_SPECS: dict[str, tuple[str, str]] = {
    "<AMI>": ("amiid", r"ami-[0-9a-f]+"),
    "<INSTANCE>": ("instanceid", r"i-[0-9a-f]+"),
    "<SG>": ("sgid", r"sg-[0-9a-f]+"),
    "<LC>": ("lcid", r"lc-[0-9a-f]+"),
    "<ELB>": ("elbid", r"elb-[0-9a-z-]+"),
    "<ASG>": ("asgid", r"asg-[0-9a-z-]+"),
    "<TIME>": ("time", r"\d{4}-\d{2}-\d{2}[ T_]\d{2}:\d{2}:\d{2}[,.]?\d*"),
    "<NUM>": ("num", r"\d+"),
}

_PLACEHOLDER = re.compile("|".join(re.escape(p) for p in GROUP_SPECS))


def derive_regex(template: str) -> str:
    """Turn a masked template into a regex with named capture groups.

    Repeated placeholders of one type get numbered group names
    (``num``, ``num2``, ...), matching how the paper's @fields carry both
    an instance count and a total in one line.
    """
    parts: list[str] = []
    counts: dict[str, int] = {}
    cursor = 0
    for match in _PLACEHOLDER.finditer(template):
        parts.append(re.escape(template[cursor : match.start()]))
        base, sub = GROUP_SPECS[match.group(0)]
        counts[base] = counts.get(base, 0) + 1
        name = base if counts[base] == 1 else f"{base}{counts[base]}"
        parts.append(f"(?P<{name}>{sub})")
        cursor = match.end()
    parts.append(re.escape(template[cursor:]))
    return "".join(parts)


def derive_pattern(cluster: LogCluster) -> LogPattern:
    """Build the :class:`LogPattern` transformation rule for a cluster.

    Raises :class:`ValueError` if the derived regex fails to match every
    member line — a signal the clustering threshold was too loose.
    """
    regex = derive_regex(cluster.representative)
    pattern = LogPattern(activity=cluster.name, regex=regex, position=END)
    for line in cluster.lines:
        if pattern.match(line) is None and pattern.match(mask_line(line)) is None:
            raise ValueError(
                f"derived regex for cluster {cluster.name!r} does not match member: {line!r}"
            )
    return pattern

"""String-distance clustering of log lines.

"We collected the logs from Asgard, clustered the log lines using a string
distance metric, and manually combined and named clusters at the desired
level of granularity" (§III.A).  We reproduce the automatic part: lines
are *masked* (ids, hashes and numbers replaced by type placeholders) and
greedily clustered by normalised similarity against each cluster's
representative.  The analyst's manual naming step is modelled by an
optional ``namer`` callable; the default derives a name from the stable
words of the template.
"""

from __future__ import annotations

import dataclasses
import difflib
import re
import typing as _t

#: Masking rules: (regex, placeholder). Order matters — most specific first.
MASKS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bami-[0-9a-f]+\b"), "<AMI>"),
    (re.compile(r"\bi-[0-9a-f]+\b"), "<INSTANCE>"),
    (re.compile(r"\bsg-[0-9a-f]+\b"), "<SG>"),
    (re.compile(r"\blc-[0-9a-f]+\b"), "<LC>"),
    (re.compile(r"\belb-[0-9a-z-]+\b"), "<ELB>"),
    (re.compile(r"\basg-[0-9a-z-]+\b"), "<ASG>"),
    (re.compile(r"\d{4}-\d{2}-\d{2}[ T_]\d{2}:\d{2}:\d{2}[,.]?\d*"), "<TIME>"),
    (re.compile(r"\b\d+\b"), "<NUM>"),
]


def mask_line(line: str) -> str:
    """Replace volatile substrings with type placeholders."""
    for pattern, placeholder in MASKS:
        line = pattern.sub(placeholder, line)
    return line


def similarity(a: str, b: str) -> float:
    """Normalised string similarity in [0, 1] (difflib ratio on masks)."""
    return difflib.SequenceMatcher(None, mask_line(a), mask_line(b)).ratio()


@dataclasses.dataclass
class LogCluster:
    """A set of log lines believed to share one template."""

    representative: str  # masked template of the first member
    lines: list[str] = dataclasses.field(default_factory=list)
    name: str = ""

    def add(self, line: str) -> None:
        self.lines.append(line)


#: Masked similarity at which a line joins a cluster, tuned so Asgard-style
#: messages with embedded ids cluster by template without merging
#: distinct steps.
SIMILARITY_THRESHOLD = 0.82


def _name(cluster: LogCluster) -> str:
    """Derive an activity-ish name from the template's stable words."""
    words = re.findall(r"[A-Za-z]+", cluster.representative)
    stop = {"the", "a", "an", "of", "for", "to", "in", "on", "is", "and", "with", "by"}
    kept = [w.lower() for w in words if w.lower() not in stop][:5]
    return "_".join(kept) if kept else "cluster"


def cluster_lines(lines: _t.Iterable[str]) -> list[LogCluster]:
    """Greedy agglomerative clustering by masked similarity.

    Each line joins the existing cluster whose representative is the most
    (and at least ``SIMILARITY_THRESHOLD``) similar; otherwise it founds a
    new cluster.
    """
    clusters: list[LogCluster] = []
    for line in lines:
        masked = mask_line(line)
        best: LogCluster | None = None
        best_score = SIMILARITY_THRESHOLD
        for cluster in clusters:
            score = difflib.SequenceMatcher(None, masked, cluster.representative).ratio()
            if score >= best_score:
                best = cluster
                best_score = score
        if best is None:
            best = LogCluster(representative=masked)
            clusters.append(best)
        best.add(line)
    used: set[str] = set()
    for cluster in clusters:
        base = _name(cluster)
        name = base
        suffix = 2
        while name in used:
            name = f"{base}_{suffix}"
            suffix += 1
        used.add(name)
        cluster.name = name
    return clusters

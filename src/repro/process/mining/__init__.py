"""Offline process mining (§III.A and the preliminary work [2]).

The pipeline that turns raw operation logs into a process model:

1. :mod:`cluster` — cluster log lines by string distance (ids and numbers
   masked first), one cluster per underlying template;
2. :mod:`regexgen` — derive a regular expression per cluster, with typed
   named capture groups for ids/numbers;
3. :mod:`dfg` — build the directly-follows graph over activity-tagged
   traces;
4. :mod:`discovery` — convert the DFG into a
   :class:`~repro.process.model.ProcessModel` (start/end detection, noise
   thresholding) and verify it replays the training traces.
"""

from repro.process.mining.cluster import LogCluster, cluster_lines, mask_line, similarity
from repro.process.mining.dfg import DirectlyFollowsGraph
from repro.process.mining.discovery import discover_model
from repro.process.mining.regexgen import derive_pattern, derive_regex

__all__ = [
    "DirectlyFollowsGraph",
    "LogCluster",
    "cluster_lines",
    "derive_pattern",
    "derive_regex",
    "discover_model",
    "mask_line",
    "similarity",
]

"""Post-mortem diagnosis (§VI).

A post-mortem is a later diagnosis: once CloudTrail has delivered (wait
``repro.cloud.cloudtrail.MAX_DELAY``), ``DiagnosisEngine.diagnose(report.tree_ids)`` walks
the same tree with the same probes and can name who terminated an
instance.  What remains here is the write-history flap finder, for
transient faults reverted before any on-demand test ran.
"""

from __future__ import annotations


def transient_changes(state, kind: str, identifier: str, since: float = 0.0) -> list[dict]:
    """Configuration values that changed and later reverted.

    Uses the authoritative write history, which sees every write —
    unlike the online monitor, whose crawl interval can miss a short
    flap (the paper's third wrong-diagnosis class)."""
    # Keep the whole history (the pre-`since` write is the baseline a
    # flap reverts to); filter by when the *change* happened.
    history = list(state.history(kind, identifier))
    flaps: list[dict] = []
    for index in range(2, len(history)):
        earlier_time, earlier = history[index - 2]
        changed_time, changed = history[index - 1]
        reverted_time, reverted = history[index]
        if changed_time < since:
            continue
        if earlier is not None and earlier == reverted and changed != earlier:
            flaps.append(
                {
                    "changed_at": changed_time,
                    "reverted_at": reverted_time,
                    "duration": reverted_time - changed_time,
                    "transient_value": changed,
                }
            )
    return flaps

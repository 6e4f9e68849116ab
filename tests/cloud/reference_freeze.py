"""The pre-fast-path ``freeze``: one ``isinstance`` chain, one recursive
call per value, generator expressions, a separate intern step.

Kept as the oracle the production :func:`repro.cloud.freeze.freeze` is
compared against (``TestFastPathMatchesReference`` in
tests/cloud/test_freeze.py).  ``describe()`` never produces a dict or list
subclass, a tuple, a set or an unhashable leaf, so no cloud-level check
reaches those branches of ``freeze``; this comparison does.
"""

from repro.cloud.freeze import FrozenList, FrozenView


def _intern(value, intern, count):
    if intern is None:
        if count is not None:
            count("cloud.snapshot.copied")
        return value
    try:
        existing = intern.get(value)
    except TypeError:
        # Unhashable leaf slipped in; keep the fresh copy, uninterned.
        if count is not None:
            count("cloud.snapshot.copied")
        return value
    if existing is not None:
        if count is not None:
            count("cloud.snapshot.shared")
        return existing
    intern[value] = value
    if count is not None:
        count("cloud.snapshot.copied")
    return value


def reference_freeze(value, intern=None, count=None):
    if isinstance(value, (FrozenView, FrozenList)):
        return value
    if isinstance(value, dict):
        frozen = FrozenView(
            (key, reference_freeze(item, intern, count)) for key, item in value.items()
        )
        return _intern(frozen, intern, count)
    if isinstance(value, (list, tuple)):
        frozen = FrozenList(reference_freeze(item, intern, count) for item in value)
        return _intern(frozen, intern, count)
    if isinstance(value, (set, frozenset)):
        return frozenset(reference_freeze(item, intern, count) for item in value)
    return value

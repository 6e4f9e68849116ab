"""The pre-fast-path ``freeze``: one ``isinstance`` chain, one recursive
call per value, generator expressions.

Kept as the oracle the production :func:`repro.cloud.freeze.freeze` is
compared against, by :func:`shape` (``TestFastPathMatchesReference`` in
tests/cloud/test_freeze.py, and every history entry the cloud state
machine checks).  ``describe()`` never produces a dict or list
subclass, a tuple, a set or a foreign leaf, so no cloud-level check
reaches those branches of ``freeze``; ``TestFastPathMatchesReference``
does.
"""

from repro.cloud.freeze import FrozenList, FrozenView


def reference_freeze(value):
    if isinstance(value, (FrozenView, FrozenList)):
        return value
    if isinstance(value, dict):
        return FrozenView((key, reference_freeze(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return FrozenList(reference_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(reference_freeze(item) for item in value)
    return value


def shape(value):
    """Value plus the exact container types, recursively."""
    if isinstance(value, dict):
        return (type(value).__name__, {k: shape(v) for k, v in value.items()})
    if isinstance(value, list):
        return (type(value).__name__, [shape(v) for v in value])
    if isinstance(value, frozenset):
        return ("frozenset", {repr(shape(v)) for v in value})
    return (type(value).__name__, value)

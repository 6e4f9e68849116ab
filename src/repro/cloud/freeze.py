"""Immutable views of the cloud data plane.

The seed stored region history with ``copy.deepcopy`` at three hot sites:
every mutation deep-copied its ``describe()`` dict *into* history, every
describe read deep-copied it back *out*, and the Edda-style monitor
deep-copied the entire region on every poll tick.  The paper's §IV
consistent-API layer (``call_until`` polling) hammers exactly those
paths, so the deep copies dominated campaign time once pattern matching
became cheap.

Resources are now immutable versions (:mod:`repro.cloud.resources`) whose
``describe()`` builds its view from these read-only containers directly,
once per write:

- :class:`FrozenView` — a read-only ``dict`` subclass.  Every mutating
  method raises :class:`FrozenMutationError`; readers use it exactly like
  the plain describe-dict it replaces (equality, iteration and
  ``json.dump`` behave identically).  A view does not cross a process or
  a deep copy: rebuilding one goes through the blocked ``__setitem__``
  and fails loudly.  Only plain records leave a run (a campaign outcome
  holds no view).
- :class:`FrozenList` — the matching read-only ``list`` subclass, used
  for nested sequences (``SecurityGroups``, ``Instances``, ...).  Unlike
  a tuple it still compares equal to plain lists, so no caller notices.

The contract: anything handed out as a snapshot or a describe is frozen
and shared by reference, and mutation attempts fail loudly instead of
silently corrupting history.  Nothing in the product edits a view; a
reader that wants an edited copy builds a new dict from it.
"""

from __future__ import annotations

__all__ = ["FrozenList", "FrozenMutationError", "FrozenView"]


class FrozenMutationError(TypeError):
    """Raised on any attempt to mutate a frozen view.

    A ``TypeError`` subclass so generic "is this mutable?" probes keep
    working.
    """


def _blocked(name: str):
    def method(self, *args, **kwargs):
        raise FrozenMutationError(
            f"{type(self).__name__} is an immutable snapshot view; "
            f"{name}() would corrupt shared history — build a new dict or list from it"
        )

    method.__name__ = name
    return method


class FrozenView(dict):
    """Read-only mapping over a resource's described form.

    Construction goes through ``dict.__init__`` (which bypasses the
    blocked ``__setitem__``), after which the view is sealed.
    """

    __slots__ = ()

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    __ior__ = _blocked("__ior__")
    clear = _blocked("clear")
    pop = _blocked("pop")
    popitem = _blocked("popitem")
    setdefault = _blocked("setdefault")
    update = _blocked("update")

    def __repr__(self) -> str:
        return f"FrozenView({dict.__repr__(self)})"


class FrozenList(list):
    """Read-only sequence that still compares equal to plain lists."""

    __slots__ = ()

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    __iadd__ = _blocked("__iadd__")
    __imul__ = _blocked("__imul__")
    append = _blocked("append")
    extend = _blocked("extend")
    insert = _blocked("insert")
    remove = _blocked("remove")
    clear = _blocked("clear")
    sort = _blocked("sort")
    reverse = _blocked("reverse")

    # list.pop mutates; block it (dict.pop blocked above for symmetry).
    pop = _blocked("pop")

    def __repr__(self) -> str:
        return f"FrozenList({list.__repr__(self)})"


"""Reads of the region's history and the monitor that tests compare against."""


def monitor_at(monitor, when: float, kind: str, identifier: str):
    """The view of a resource as of the monitor's last crawl at or before
    ``when`` (None: absent then, or no crawl yet), read off ``changes``."""
    answer = None
    for crawled_at, view in monitor.changes(kind, identifier):
        if crawled_at > when:
            break
        answer = view
    return answer


def writes_since(state, mark: int) -> list[tuple[str, str]]:
    """(kind, id) of every write at or after write position ``mark``, in
    write order, read from the history entries' positions."""
    written = sorted(
        (position, key)
        for key, (_times, _views, positions) in state._history.items()
        for position in positions
        if position >= mark
    )
    return [key for _position, key in written]


def plain(value):
    """A described view rebuilt from plain dicts and lists, sharing nothing
    with it: the copy the seed's monitor took with ``copy.deepcopy``.  A
    view has no copy protocol of its own (it never leaves a run)."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value

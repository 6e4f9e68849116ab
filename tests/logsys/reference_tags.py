"""The naive tag store, kept as the oracle for :class:`LogRecord`'s tags,
and the annotators' tagging spelled as ``add_tag`` calls on it."""


class NaiveTags:
    def __init__(self, tags: list[str]) -> None:
        self.tags = list(tags)

    def add_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def tag_value(self, prefix: str) -> str | None:
        return next((t[len(prefix) + 1:] for t in self.tags if t.startswith(prefix + ":")), None)


def reference_bindings(binds) -> dict:
    """``AssertionAnnotator.bind`` called once per ``(activity, position,
    ids)``: each key's ids in first-bound order, without repeats."""
    bindings: dict = {}
    for activity, position, ids in binds:
        existing = bindings.setdefault((activity, position), [])
        for assertion_id in ids:
            if assertion_id not in existing:
                existing.append(assertion_id)
    return bindings


def reference_annotation(record, classification, process_id, trace_id, bindings):
    """``(tags, fields, assertion ids)`` after the process annotator, then
    the assertion annotator, as one ``add_tag`` per tag on a naive store.

    ``record`` is read, not changed; ``classification`` is the record's.
    """
    tags = NaiveTags(record.tags)
    fields = dict(record.fields)
    tags.add_tag(f"process:{process_id}")
    tags.add_tag(f"trace:{trace_id}")
    pattern = classification.pattern
    if pattern is not None:
        tags.add_tag(f"step:{pattern.activity}")
        tags.add_tag(f"position:{pattern.position}")
        if pattern.is_error:
            tags.add_tag("known-error")
        fields.update(classification.fields)
    else:
        tags.add_tag("step:unclassified")
    activity, position = tags.tag_value("step"), tags.tag_value("position")
    if activity is None or position is None:
        return tags, fields, []
    ids = list(bindings.get((activity, position), []))
    for assertion_id in ids:
        tags.add_tag(f"assert:{assertion_id}")
    return tags, fields, ids

"""The naive tag store, kept as the oracle for :class:`LogRecord`'s tags."""


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

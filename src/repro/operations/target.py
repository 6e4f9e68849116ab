"""The target configuration: what an upgrade must leave behind.

The paper's assertions compare cloud state against a *configuration
repository* (§III.B.3, Fig. 4), and its §VI.A failure classes ("reverted
before the on-demand test", "masked by interference") are statements
about that same comparison made at two different times.  So the
orchestrator, the assertions, the campaign's ground truth, the
fix catalog and the recovery probe must all ask *one* question.
This module is that question: four fields, one table saying how each is
spelled in every vocabulary above ``cloud``, one comparison.
"""

from __future__ import annotations

import dataclasses
import typing as _t


class TargetField(_t.NamedTuple):
    """One row of the table: a target field in every spelling it has."""

    #: :class:`TargetConfig` attribute = resource attribute =
    #: ``update_launch_configuration`` keyword.
    attr: str
    #: Configuration-repository key (``AssertionEnvironment.expected``).
    config_key: str
    #: Key of a described instance / launch configuration.
    describe_key: str
    #: The fault trees' ``field=`` test parameter — also the resource
    #: kind, where the field references a resource of its own.
    field: str
    label: str
    #: Root-cause leaves of the instance-count tree and the wrong-version
    #: tree; the remediation for both is restoring this field.
    causes: tuple[str, str]
    #: List-valued: compared order-insensitively.
    many: bool = False

    @property
    def setting(self) -> str:
        """The field as a setting of the resource carrying it."""
        return f"{self.label}s" if self.many else self.label

    @property
    def resource_key(self) -> str:
        """Repository key naming the one resource this field references
        (a list-valued field's first element, see ``as_repository``)."""
        return self.config_key[:-1] if self.many else self.config_key

    def read(self, view: _t.Mapping) -> _t.Any:
        """This field of a described resource, lists in canonical order."""
        value = view.get(self.describe_key)
        return sorted(value or []) if self.many else value


FIELDS = (
    TargetField("image_id", "expected_image_id", "ImageId", "ami", "AMI",
                ("wrong-ami", "lc-wrong-ami")),
    TargetField("key_name", "expected_key_name", "KeyName", "key_pair", "key pair",
                ("wrong-key-pair", "lc-wrong-key-pair")),
    TargetField("instance_type", "expected_instance_type", "InstanceType", "instance_type",
                "instance type", ("wrong-instance-type", "lc-wrong-instance-type")),
    TargetField("security_groups", "expected_security_groups", "SecurityGroups",
                "security_group", "security group",
                ("wrong-security-group", "lc-wrong-security-group"), many=True),
)

BY_FIELD = {row.field: row for row in FIELDS}
BY_CAUSE = {cause: row for row in FIELDS for cause in row.causes}


@dataclasses.dataclass(frozen=True)
class TargetConfig:
    """The four values every instance and the launch configuration must
    carry once the upgrade is done.  ``None`` = no expectation."""

    image_id: str | None = None  # the new version's AMI
    key_name: str | None = None
    instance_type: str | None = None
    security_groups: list[str] | None = None

    @classmethod
    def resolve(cls, lookup: _t.Callable[[TargetField], _t.Any]) -> "TargetConfig":
        """A target whose every value is whatever ``lookup`` says for its row."""
        return cls(**{row.attr: lookup(row) for row in FIELDS})

    def mismatches(
        self, view: _t.Mapping, fields: _t.Iterable[TargetField] = FIELDS
    ) -> list[tuple[TargetField, _t.Any, _t.Any]]:
        """``(row, expected, actual)`` for each of ``fields`` on which a
        described instance or launch configuration differs from this
        target.  The one comparison: an expectation of ``None`` is not
        checked, a list-valued field compares order-insensitively."""
        found = []
        for row in fields:
            expected = getattr(self, row.attr)
            if expected is None:
                continue
            if row.many:
                expected = sorted(expected)
            actual = row.read(view)
            if actual != expected:
                found.append((row, expected, actual))
        return found

    def as_repository(self) -> dict:
        """This target's entries of the configuration repository."""
        repository = {}
        for row in FIELDS:
            value = getattr(self, row.attr)
            if row.many and value is not None:
                value = list(value)  # the repository is mutable by design
                if value:
                    repository[row.resource_key] = value[0]
            repository[row.config_key] = value
        return repository

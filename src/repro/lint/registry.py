"""Rule registry.

A rule is a class with a unique ``rule_id``, a one-line ``description``
and a ``check(project)`` method returning findings.  Registration is a
decorator so adding a rule is one import away; the CLI's ``--rules``
filter and ``--list-rules`` read the same registry.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional

from repro.lint.model import Finding
from repro.lint.project import LintError, Project


class Rule(abc.ABC):
    """Base class for lint rules."""

    #: Unique kebab-case identifier (used in reports and suppressions).
    rule_id: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""
    #: Directory names this rule is scoped to (None = whole project).
    scope_dirs: Optional[frozenset[str]] = None

    @abc.abstractmethod
    def check(self, project: Project) -> Iterable[Finding]:
        """Yield every violation found in ``project``."""

    def files(self, project: Project) -> Iterable["object"]:
        """The project files this rule's scope selects."""
        if self.scope_dirs is None:
            return project.files
        return project.scoped(self.scope_dirs)


_RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define rule_id")
    if cls.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _RULES[cls.rule_id] = cls()
    return cls


def _load_builtin_rules() -> None:
    # Import for the registration side effect; idempotent.
    import repro.lint.rules  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_RULES[k] for k in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise LintError(
            f"unknown rule id {rule_id!r}; known rules: {known}"
        ) from None


def select_rules(ids: Optional[Iterable[str]]) -> list[Rule]:
    """The rules to run: all of them, or the ``ids`` subset."""
    if ids is None:
        return all_rules()
    return [get_rule(i) for i in ids]


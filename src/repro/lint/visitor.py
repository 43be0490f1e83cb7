"""The shared AST visitor framework.

:class:`LintVisitor` extends :class:`ast.NodeVisitor` with what every
rule here needs and the stdlib visitor lacks:

* an **ancestor stack** (``self.stack``), so a node can ask "am I inside
  an ``if`` whose test guards me?" without a second pass;
* a ``report(node, message)`` helper that anchors a finding to the
  node's line in the file under analysis.

Plus module-level expression helpers used across rules: dotted-name
flattening, the ``None`` constant and decorator names.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.model import Finding
from repro.lint.project import SourceFile


class LintVisitor(ast.NodeVisitor):
    """AST visitor with ancestor tracking and finding collection."""

    rule_id = ""

    def __init__(self, source_file: SourceFile) -> None:
        self.source_file = source_file
        self.findings: list[Finding] = []
        self.stack: list[ast.AST] = []

    def visit(self, node: ast.AST) -> None:
        self.stack.append(node)
        try:
            super().visit(node)
        finally:
            self.stack.pop()

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                file=self.source_file.rel,
                line=getattr(node, "lineno", 1),
                rule_id=self.rule_id,
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        tree = self.source_file.tree
        if tree is not None:
            self.visit(tree)
        return self.findings


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_none_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def decorator_names(node: ast.AST) -> set[str]:
    """Flat names of a class/function's decorators (``dataclass(...)``
    and ``dataclasses.dataclass`` both yield ``dataclass``)."""
    out: set[str] = set()
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            out.add(target.attr)
        elif isinstance(target, ast.Name):
            out.add(target.id)
    return out

"""The shared AST visitor framework.

:class:`LintVisitor` is an :class:`ast.NodeVisitor` that collects
findings: ``report(node, message)`` anchors one to the node's line in
the file under analysis.  :func:`dotted_name` flattens an attribute
chain.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.model import Finding
from repro.lint.project import SourceFile


class LintVisitor(ast.NodeVisitor):
    """AST visitor with finding collection."""

    rule_id = ""

    def __init__(self, source_file: SourceFile) -> None:
        self.source_file = source_file
        self.findings: list[Finding] = []

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

"""Rule: telemetry emission only behind the enabled-predicate.

The observability contract (docs/OBSERVABILITY.md, "Overhead") is that a
disabled run pays **one predicate check** per instrumented site and
nothing else: no event-payload formatting, no attribute chasing, no dead
keyword construction.  That only holds if every ``<x>.emit(...)`` call
site sits inside an ``if <x> is not None`` (or truthiness) guard on the
telemetry handle -- the handle is ``None`` whenever no collector is
bound, so an unguarded call is *also* a latent ``AttributeError`` on
every untraced run that reaches it.

The rule finds ``emit`` calls on a handle-valued expression (a bare
name or attribute whose name contains ``telemetry``) and requires an
enclosing ``if``/``while``/ternary whose test mentions a telemetry
handle, either as ``... is not None`` or as a plain truthiness check.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.model import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register
from repro.lint.rules.scope import SIMULATOR_SCOPE
from repro.lint.visitor import LintVisitor, is_none_constant

def _is_handle_expr(node: ast.AST) -> bool:
    """Does ``node`` (a call receiver or a guard test) denote the
    telemetry handle?"""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and "telemetry" in n.attr:
            return True
        if isinstance(n, ast.Name) and "telemetry" in n.id:
            return True
    return False


def _test_guards_handle(test: ast.expr) -> bool:
    """Does an ``if`` test establish that the handle is live?"""
    if isinstance(test, ast.Compare):
        if (
            len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and is_none_constant(test.comparators[0])
            and _is_handle_expr(test.left)
        ):
            return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_test_guards_handle(v) for v in test.values)
    # Plain truthiness: ``if telemetry:`` / ``if self.telemetry:``.
    if isinstance(test, (ast.Name, ast.Attribute)):
        return _is_handle_expr(test)
    return False


class _GuardVisitor(LintVisitor):
    rule_id = "telemetry-guard"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "emit"
            and _is_handle_expr(func.value)
            and not self._guarded(node)
        ):
            self.report(
                node,
                "telemetry emit() outside an 'is not None' guard: the "
                "disabled path must cost one predicate check, and the "
                "handle is None on un-instrumented runs",
            )
        self.generic_visit(node)

    def _guarded(self, node: ast.Call) -> bool:
        # Walk the ancestor path outward; a guard only counts when the
        # call lives in the *body* of the guarded branch (an emit in the
        # else-branch of its own guard is still unguarded).
        path = self.stack
        for i in range(len(path) - 2, -1, -1):
            anc = path[i]
            child = path[i + 1]
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Guards do not cross function boundaries.
                return False
            if isinstance(anc, (ast.If, ast.While)):
                if _test_guards_handle(anc.test) and any(
                    child is stmt for stmt in anc.body
                ):
                    return True
            elif isinstance(anc, ast.IfExp):
                if (
                    _test_guards_handle(anc.test)
                    and child is anc.body
                ):
                    return True
        return False


@register
class TelemetryGuardRule(Rule):
    rule_id = "telemetry-guard"
    description = (
        "every telemetry emit() call must sit behind the "
        "enabled-predicate so the disabled hot path stays one check "
        "per site"
    )
    scope_dirs = SIMULATOR_SCOPE

    def check(self, project: Project) -> Iterable[Finding]:
        for sf in self.files(project):
            assert isinstance(sf, SourceFile)
            yield from _GuardVisitor(sf).run()

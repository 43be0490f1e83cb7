"""Rule: code dispatched to a worker pool is fork-safe.

A ``ProcessPoolExecutor`` worker is a forked/spawned child: a module
lock it inherits may be permanently held (fork copies the locked
state), and any file handle it opens races every sibling writing the
same path.  The repo's discipline is that workers compute and the
parent does the I/O bookkeeping -- most importantly, **the run ledger
is appended only by the parent process**, with a single ``os.write`` on
an ``O_APPEND`` descriptor per record, so records from concurrent runs
interleave but never interleave *within* a record.

This rule enforces all of that statically:

* every function reachable from a pool dispatch site
  (``executor.submit(f, ...)``, ``pool.imap(f, ...)``, ...) or named as
  the ``initializer=`` of a pool, an executor or a pool builder
  (``parallel.process_pool``) is resolved (bare name in the
  same module, ``mod.func`` across modules) and its transitive
  same-project callees are walked;
* inside that worker cone, acquiring a module-level lock (``with
  LOCK:`` / ``LOCK.acquire()``) or opening a file handle (``open``,
  ``os.open``, ``gzip.open``, ``path.open()``, ...) is a finding --
  unless the function is whitelisted with ``# repro-lint: fork-safe``
  on its ``def`` line, which asserts the function was audited for pool
  execution and stops the walk;
* reaching the ledger writers (``append_record`` /
  ``record_resolution``) from a worker is always a finding: ledger
  appends are parent-process-only, whitelist or not;
* the ledger writer itself must honour the single-write discipline:
  ``append_record`` opens with ``os.open(..., O_APPEND)`` and issues
  exactly one ``os.write``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Union

from repro.lint import dataflow
from repro.lint.model import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register
from repro.lint.rules.scope import CONCURRENCY_SCOPE
from repro.lint.visitor import dotted_name, mentions_attribute, mentions_name

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Pool methods whose first function argument runs in a worker.
POOL_DISPATCH = frozenset(
    ("submit", "map", "imap", "imap_unordered", "apply", "apply_async",
     "starmap")
)

#: Call names that open an OS-level file handle.
_OPENERS = frozenset(("open", "fdopen"))

#: The parent-process-only ledger entry points.
LEDGER_WRITERS = frozenset(("append_record", "record_resolution"))


def _module_functions(sf: SourceFile) -> dict[str, _FuncDef]:
    tree = sf.tree
    if tree is None:
        return {}
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class _WorkerWalk:
    """Transitive analysis of one dispatched function."""

    rule_id = "fork-safety"

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: list[Finding] = []
        self._visited: set[tuple[str, str]] = set()
        self._funcs: dict[str, dict[str, _FuncDef]] = {}
        self._locks: dict[str, dict[str, int]] = {}
        self._safe_lines: dict[str, frozenset[int]] = {}

    # -- per-file caches ---------------------------------------------------

    def _file_funcs(self, sf: SourceFile) -> dict[str, _FuncDef]:
        if sf.rel not in self._funcs:
            self._funcs[sf.rel] = _module_functions(sf)
        return self._funcs[sf.rel]

    def _file_locks(self, sf: SourceFile) -> dict[str, int]:
        if sf.rel not in self._locks:
            tree = sf.tree
            self._locks[sf.rel] = (
                dataflow.module_locks(tree) if tree is not None else {}
            )
        return self._locks[sf.rel]

    def _fork_safe(self, sf: SourceFile, func: _FuncDef) -> bool:
        if sf.rel not in self._safe_lines:
            self._safe_lines[sf.rel] = dataflow.fork_safe_lines(sf.text)
        return func.lineno in self._safe_lines[sf.rel]

    # -- resolution --------------------------------------------------------

    def resolve(
        self, sf: SourceFile, func_expr: ast.expr
    ) -> Optional[tuple[SourceFile, _FuncDef]]:
        """The (file, def) a dispatch argument names, when findable."""
        if isinstance(func_expr, ast.Name):
            func = self._file_funcs(sf).get(func_expr.id)
            if func is not None:
                return (sf, func)
            return None
        name = dotted_name(func_expr)
        if name is None:
            return None
        head, _, tail = name.rpartition(".")
        if not head:
            return None
        other = self.project.find_module(f"{head.split('.')[-1]}.py")
        if other is None:
            return None
        func = self._file_funcs(other).get(tail)
        if func is None:
            return None
        return (other, func)

    # -- the walk ----------------------------------------------------------

    def check(self, sf: SourceFile, func: _FuncDef, origin: str) -> None:
        key = (sf.rel, func.name)
        if key in self._visited:
            return
        self._visited.add(key)
        if self._fork_safe(sf, func):
            return  # audited: the whitelist stops the walk here
        locks = self._file_locks(sf)
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    self._check_lock_use(sf, item.context_expr, locks, origin)
            if isinstance(node, ast.Call):
                self._check_call(sf, node, locks, origin)

    def _report(self, sf: SourceFile, line: int, message: str) -> None:
        self.findings.append(
            Finding(
                file=sf.rel, line=line, rule_id=self.rule_id,
                message=message,
            )
        )

    def _check_lock_use(
        self,
        sf: SourceFile,
        expr: ast.expr,
        locks: dict[str, int],
        origin: str,
    ) -> None:
        name = dotted_name(expr)
        if name is not None and name.split(".")[0] in locks:
            self._report(
                sf,
                expr.lineno,
                f"pool worker (dispatched via {origin}) enters `with "
                f"{name}:` -- a module lock inherited across fork may "
                f"already be held; mark the function `# repro-lint: "
                f"fork-safe` only after removing the lock",
            )

    def _check_call(
        self,
        sf: SourceFile,
        node: ast.Call,
        locks: dict[str, int],
        origin: str,
    ) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        head, _, tail = name.rpartition(".")
        if tail == "acquire" and (not head or head.split(".")[0] in locks):
            self._report(
                sf,
                node.lineno,
                f"pool worker (dispatched via {origin}) calls "
                f"{name}(): lock acquisition in a forked child can "
                f"deadlock on state copied mid-hold",
            )
        if tail in LEDGER_WRITERS:
            self._report(
                sf,
                node.lineno,
                f"pool worker (dispatched via {origin}) reaches the "
                f"run ledger via {name}(): ledger appends are "
                f"parent-process-only (one O_APPEND write per record)",
            )
            return
        if name in _OPENERS or (
            tail in _OPENERS and head.split(".")[-1] in
            ("os", "io", "gzip", "bz2", "lzma")
        ) or (tail == "open" and head):
            self._report(
                sf,
                node.lineno,
                f"pool worker (dispatched via {origin}) opens a file "
                f"handle via {name}(); workers must compute, the "
                f"parent does the I/O (or mark the audited function "
                f"`# repro-lint: fork-safe`)",
            )
            return
        # Recurse into same-project callees.
        resolved = self.resolve(sf, node.func)
        if resolved is not None:
            self.check(resolved[0], resolved[1], origin)


def _ledger_discipline(project: Project) -> Iterator[Finding]:
    """``append_record`` uses one O_APPEND descriptor and one write."""
    sf = project.find_module("ledger.py")
    if sf is None or sf.tree is None:
        return
    func = _module_functions(sf).get("append_record")
    if func is None:
        return
    opens = [
        n
        for n in ast.walk(func)
        if isinstance(n, ast.Call) and dotted_name(n.func) == "os.open"
    ]
    writes = [
        n
        for n in ast.walk(func)
        if isinstance(n, ast.Call) and dotted_name(n.func) == "os.write"
    ]
    if not opens:
        yield Finding(
            file=sf.rel,
            line=func.lineno,
            rule_id="fork-safety",
            message=(
                "append_record() must open the ledger with "
                "os.open(..., O_APPEND | O_CREAT | O_WRONLY); buffered "
                "append modes do not guarantee atomic record appends"
            ),
        )
    else:
        for call in opens:
            if not any(
                mentions_attribute(arg, "O_APPEND")
                or mentions_name(arg, "O_APPEND")
                for arg in call.args
            ):
                yield Finding(
                    file=sf.rel,
                    line=call.lineno,
                    rule_id="fork-safety",
                    message=(
                        "append_record() opens the ledger without "
                        "O_APPEND: concurrent writers would interleave "
                        "bytes within records"
                    ),
                )
    if len(writes) != 1:
        yield Finding(
            file=sf.rel,
            line=func.lineno,
            rule_id="fork-safety",
            message=(
                f"append_record() issues {len(writes)} os.write calls; "
                f"the atomicity argument requires exactly one write of "
                f"the full record (one line, one syscall)"
            ),
        )


class _DispatchVisitor(ast.NodeVisitor):
    """Collects pool dispatch sites in one file: the function argument of
    a dispatch method, and the ``initializer=`` of a pool or executor
    constructor or a ``*_pool`` builder (it runs in every worker before
    any task)."""

    def __init__(self) -> None:
        self.sites: list[tuple[ast.expr, str, int]] = []

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in POOL_DISPATCH
            and node.args
        ):
            self.sites.append(
                (node.args[0], f".{node.func.attr}()", node.lineno)
            )
        ctor = (dotted_name(node.func) or "").rpartition(".")[2]
        if ctor.endswith(("Pool", "Executor", "_pool")):
            for kw in node.keywords:
                if kw.arg == "initializer":
                    self.sites.append(
                        (kw.value, f"{ctor}(initializer=)", node.lineno)
                    )
        self.generic_visit(node)


@register
class ForkSafetyRule(Rule):
    rule_id = "fork-safety"
    description = (
        "pool-dispatched functions take no module locks, open no file "
        "handles (unless marked fork-safe) and never touch the "
        "parent-process-only run ledger"
    )
    scope_dirs = CONCURRENCY_SCOPE

    def check(self, project: Project) -> Iterable[Finding]:
        walk = _WorkerWalk(project)
        for sf in self.files(project):
            assert isinstance(sf, SourceFile)
            tree = sf.tree
            if tree is None:
                continue
            visitor = _DispatchVisitor()
            visitor.visit(tree)
            for func_expr, api, lineno in visitor.sites:
                resolved = walk.resolve(sf, func_expr)
                if resolved is None:
                    continue  # method / external callable: out of scope
                origin = f"{sf.rel}:{lineno} {api}"
                walk.check(resolved[0], resolved[1], origin)
        yield from sorted(set(walk.findings))
        yield from _ledger_discipline(project)

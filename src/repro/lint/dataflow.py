"""Shared-state dataflow inference for the ``lock-discipline`` rule.

The rule needs the same facts about every class: which of its
attributes are locks, which lock (if any) protects each access to every
other attribute, and what the code *declares* about that protection.
This module computes those facts once per file; the rule interprets
them.

The analysis is deliberately **lexical**.  An access is "under" a lock
when a ``with self._lock:`` block encloses it in the source -- including
across nested ``def``/``lambda`` boundaries, because the dominant idiom
in this tree is a predicate closure evaluated *by* the lock's own
machinery (``Condition.wait_for(lambda: self._next_seq > cursor)`` runs
the lambda with the condition's lock held).  Closures that instead cross
a thread boundary (submitted to an executor, registered as a future
callback) are handled by a dedicated escape check in the
lock-discipline rule, not by weakening the lexical model.

Contract vocabulary (scanned from trailing comments, like suppressions):

* ``# repro-lint: guarded-by[_lock]`` on an ``__init__`` assignment --
  every access to the attribute outside ``__init__`` must hold
  ``self._lock``;
* ``# repro-lint: holds[_lock]`` on a ``def`` line -- the method is an
  internal helper only ever called with ``self._lock`` held, so its body
  is analysed as if the lock were taken at entry.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.lint.project import SourceFile
from repro.lint.visitor import dotted_name

#: The contract verbs, in documentation order.  ``tests/test_docs.py``
#: checks the vocabulary table in docs/STATIC_ANALYSIS.md against it.
CONTRACT_MARKERS: tuple[str, ...] = ("guarded-by", "holds")

#: ``threading`` constructors whose result is a lock (or owns one).
LOCK_CONSTRUCTORS = frozenset(
    ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore")
)

#: Executor/pool methods whose function argument runs on another thread
#: or process.  ``add_done_callback`` is included: callbacks run on a
#: pool thread, so a closure handed to one crosses a thread boundary
#: exactly like a submitted task.
DISPATCH_METHODS = frozenset(
    (
        "submit",
        "map",
        "imap",
        "imap_unordered",
        "apply",
        "apply_async",
        "starmap",
        "add_done_callback",
    )
)

#: Method calls that mutate their receiver: ``self._jobs.pop(...)`` is a
#: *write* to ``_jobs`` for classification purposes, exactly like
#: ``self._jobs[k] = v``.
MUTATOR_METHODS = frozenset(
    (
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "setdefault", "update",
    )
)

_MARKER = re.compile(
    r"#\s*repro-lint:\s*(?P<verb>guarded-by|holds)\[(?P<args>[^\]]*)\]"
)


@dataclass(frozen=True)
class Marker:
    """One contract comment: a verb and its bracketed lock list."""

    verb: str
    args: tuple[str, ...]


def contract_markers(source: str) -> dict[int, Marker]:
    """``{line_number: marker}`` for every guarded-by/holds comment."""
    out: dict[int, Marker] = {}
    if "repro-lint" not in source:  # fast path, mirrors suppress.py
        return out
    for lineno, line in enumerate(source.splitlines(), 1):
        m = _MARKER.search(line)
        if m is None:
            continue
        args = tuple(
            tok.strip() for tok in m.group("args").split(",") if tok.strip()
        )
        out[lineno] = Marker(verb=m.group("verb"), args=args)
    return out


# ---------------------------------------------------------------------------
# Per-class facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` read or write, with its lock context."""

    attr: str
    line: int
    write: bool
    held: frozenset[str]  #: canonical lock names held lexically
    in_init: bool


@dataclass(frozen=True)
class ReturnEscape:
    """A guardable attribute returned (directly or via a local alias)."""

    attr: str
    line: int
    method: str


@dataclass(frozen=True)
class LocalEscape:
    """A local bound to a guarded attribute inside its critical section
    and used after the section ends."""

    attr: str
    name: str
    line: int
    method: str


@dataclass(frozen=True)
class YieldEvent:
    """A ``yield`` reached while a lock is held lexically."""

    line: int
    method: str
    held: frozenset[str]


@dataclass(frozen=True)
class CaptureEvent:
    """A closure handed to a dispatch method, and the attrs it reads."""

    attrs: frozenset[str]
    line: int
    api: str  #: the dispatch method name (``submit``, ...)


@dataclass
class ClassState:
    """Everything ``lock-discipline`` needs to know about one class."""

    name: str
    source: SourceFile
    node: ast.ClassDef
    locks: dict[str, int] = field(default_factory=dict)
    alias_of: dict[str, str] = field(default_factory=dict)
    declared: dict[str, tuple[str, int]] = field(default_factory=dict)
    holds: dict[str, frozenset[str]] = field(default_factory=dict)
    method_lines: dict[str, int] = field(default_factory=dict)
    accesses: list[AttrAccess] = field(default_factory=list)
    returns: list[ReturnEscape] = field(default_factory=list)
    local_escapes: list[LocalEscape] = field(default_factory=list)
    yields: list[YieldEvent] = field(default_factory=list)
    captures: list[CaptureEvent] = field(default_factory=list)

    def canonical(self, lock: str) -> str:
        """Follow ``Condition(self._lock)`` aliases to the real lock."""
        seen: set[str] = set()
        while lock in self.alias_of and lock not in seen:
            seen.add(lock)
            lock = self.alias_of[lock]
        return lock

    @property
    def has_locks(self) -> bool:
        return bool(self.locks)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _lock_constructor(call: ast.expr) -> Optional[ast.Call]:
    """The call node when ``call`` constructs a ``threading`` lock."""
    if not isinstance(call, ast.Call):
        return None
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, tail = name.rpartition(".")
    if tail not in LOCK_CONSTRUCTORS:
        return None
    if head and head.split(".")[-1] != "threading":
        return None
    return call

def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_contracts(
    cls: ClassState, markers: dict[int, Marker]
) -> None:
    """First pass: locks, aliases, declarations and holds annotations."""
    for item in cls.node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls.method_lines[item.name] = item.lineno
        marker = markers.get(item.lineno)
        if marker is not None and marker.verb == "holds":
            cls.holds[item.name] = frozenset(marker.args)
        for node in ast.walk(item):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
                value: Optional[ast.expr] = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None or value is None:
                    continue
                ctor = _lock_constructor(value)
                if ctor is not None:
                    cls.locks[attr] = node.lineno
                    if ctor.args:
                        underlying = _self_attr(ctor.args[0])
                        if underlying is not None:
                            cls.alias_of[attr] = underlying
                marker = markers.get(node.lineno)
                if marker is not None and marker.verb == "guarded-by":
                    for lock in marker.args:
                        cls.declared[attr] = (lock, node.lineno)


_Func = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class _MethodWalker:
    """Recursive walk of one method body, tracking held locks."""

    def __init__(self, cls: ClassState, func: _Func) -> None:
        self.cls = cls
        self.method = func.name
        self.in_init = func.name == "__init__"
        held0 = frozenset(
            cls.canonical(lk) for lk in cls.holds.get(func.name, frozenset())
        )
        #: local name -> (self attr, line of the binding)
        self._aliases: dict[str, tuple[str, int]] = {}
        #: local name -> (guarded attr, its lock) for a binding that left
        #: the attr's critical section
        self._escaped: dict[str, tuple[str, str]] = {}
        self._nested: dict[str, _Func] = {}  #: nested def name -> node
        for stmt in func.body:
            self._visit(stmt, held0)

    # -- helpers ----------------------------------------------------------

    def _as_lock(self, expr: ast.expr) -> Optional[str]:
        attr = _self_attr(expr)
        if attr is not None and attr in self.cls.locks:
            return self.cls.canonical(attr)
        return None

    def _plain_attr(self, expr: ast.expr) -> Optional[str]:
        """``attr`` for a non-lock, non-method ``self.<attr>``."""
        attr = _self_attr(expr)
        if (
            attr is not None
            and attr not in self.cls.locks
            and attr not in self.cls.method_lines
        ):
            return attr
        return None

    def _record(
        self,
        attr: str,
        line: int,
        write: bool,
        held: frozenset[str],
    ) -> None:
        self.cls.accesses.append(
            AttrAccess(
                attr=attr,
                line=line,
                write=write,
                held=held,
                in_init=self.in_init,
            )
        )

    def _closure_attrs(self, node: ast.AST) -> frozenset[str]:
        """Every non-lock ``self.<attr>`` read anywhere inside ``node``
        (method references excluded: calling a method that takes the
        lock itself is the *correct* cross-thread idiom)."""
        return frozenset(
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
            and n.attr not in self.cls.locks
            and n.attr not in self.cls.method_lines
        )

    def _leave(self, block: ast.AST, released: frozenset[str]) -> None:
        """Mark the locals ``block`` bound to state guarded by a lock it
        ``released``: a use after the block reaches that state unlocked.
        A block that also rebinds the attribute has moved the object
        out (``executor = self._executor; self._executor = None``), so
        its local is no escape."""
        if not released:
            return
        moved = {
            _self_attr(n) for n in ast.walk(block)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        }
        for name, (attr, line) in self._aliases.items():
            decl = self.cls.declared.get(attr)
            if (
                decl is not None
                and block.lineno <= line <= block.end_lineno
                and self.cls.canonical(decl[0]) in released
                and attr not in moved
            ):
                self._escaped[name] = (attr, self.cls.canonical(decl[0]))

    # -- the walk ---------------------------------------------------------

    def _visit(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                lock = self._as_lock(item.context_expr)
                if lock is not None:
                    acquired.add(lock)
                else:
                    self._visit(item.context_expr, held)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held)
            inner = frozenset(acquired)
            for child in node.body:
                self._visit(child, inner)
            self._leave(node, inner - held)
            return

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._nested[node.name] = node
            for default in node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                self._visit(default, held)
            for child in node.body:
                self._visit(child, held)
            return

        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if (
                attr is not None
                and attr not in self.cls.locks
                and attr not in self.cls.method_lines
            ):
                self._record(
                    attr,
                    node.lineno,
                    write=isinstance(node.ctx, (ast.Store, ast.Del)),
                    held=held,
                )
            for child in ast.iter_child_nodes(node):
                self._visit(child, held)
            return

        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # `self._jobs[k] = v` / `del self._jobs[k]`: a container
            # mutation is a write to the attribute.
            attr = self._plain_attr(node.value)
            if attr is not None:
                self._record(attr, node.lineno, write=True, held=held)

        if isinstance(node, ast.Assign):
            # Track `x = self.attr` so `return x` counts as an escape of
            # self.attr, not of an anonymous local.  The value is read
            # before the targets are bound.
            self._visit(node.value, held)
            value_attr = _self_attr(node.value)
            for target in node.targets:
                self._visit(target, held)
                if isinstance(target, ast.Name):
                    if value_attr is not None:
                        self._aliases[target.id] = (value_attr, node.lineno)
                    else:
                        self._aliases.pop(target.id, None)
            return

        if isinstance(node, ast.Name):
            escaped = self._escaped.get(node.id)
            if escaped is None:
                return
            if not isinstance(node.ctx, ast.Load):
                del self._escaped[node.id]  # rebound
            elif escaped[1] not in held:
                del self._escaped[node.id]  # reported once
                self.cls.local_escapes.append(LocalEscape(
                    attr=escaped[0], name=node.id, line=node.lineno,
                    method=self.method,
                ))
            return

        if isinstance(node, ast.Return) and node.value is not None:
            escaped = _self_attr(node.value)
            if escaped is None and isinstance(node.value, ast.Name):
                escaped, _line = self._aliases.get(node.value.id, (None, 0))
                # The return escape below reports it, once.
                self._escaped.pop(node.value.id, None)
            if (
                escaped is not None
                and escaped not in self.cls.locks
                and escaped not in self.cls.method_lines
            ):
                self.cls.returns.append(
                    ReturnEscape(
                        attr=escaped, line=node.lineno, method=self.method
                    )
                )
            self._visit(node.value, held)
            return

        if isinstance(node, (ast.Yield, ast.YieldFrom)) and held:
            self.cls.yields.append(
                YieldEvent(line=node.lineno, method=self.method, held=held)
            )
            # fall through: still record accesses in the yielded expr

        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
            ):
                receiver = self._plain_attr(node.func.value)
                if receiver is not None:
                    self._record(receiver, node.lineno, write=True,
                                 held=held)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in DISPATCH_METHODS
            ):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    target: Optional[ast.AST] = None
                    if isinstance(arg, ast.Lambda):
                        target = arg
                    elif (
                        isinstance(arg, ast.Name)
                        and arg.id in self._nested
                    ):
                        target = self._nested[arg.id]
                    if target is not None:
                        attrs = self._closure_attrs(target)
                        if attrs:
                            self.cls.captures.append(
                                CaptureEvent(
                                    attrs=attrs,
                                    line=node.lineno,
                                    api=node.func.attr,
                                )
                            )

        for child in ast.iter_child_nodes(node):
            self._visit(child, held)


def analyze_file(source_file: SourceFile) -> list[ClassState]:
    """Per-class concurrency facts for every class in ``source_file``."""
    tree = source_file.tree
    if tree is None:
        return []
    markers = contract_markers(source_file.text)
    out: list[ClassState] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = ClassState(name=node.name, source=source_file, node=node)
        _collect_contracts(cls, markers)
        for item in cls.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _MethodWalker(cls, item)
        out.append(cls)
    return out


def common_lock(accesses: list[AttrAccess]) -> Optional[str]:
    """The single lock held at *every* access, or None."""
    if not accesses:
        return None
    shared: Optional[frozenset[str]] = None
    for access in accesses:
        shared = access.held if shared is None else shared & access.held
        if not shared:
            return None
    assert shared is not None
    return sorted(shared)[0]

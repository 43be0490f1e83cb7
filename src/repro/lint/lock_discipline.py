"""Check: shared state honours its declared lock, and the contract is live.

The service layer (:mod:`repro.service.jobs`) keeps every piece of
cross-thread state behind one lock; the correctness argument in
docs/ARCHITECTURE.md ("all three resolution paths run under one lock")
is only as good as every individual access site.  This check turns that
argument into a checked contract, written in two comment markers:

* ``# repro-lint: guarded-by[_lock]`` on an ``__init__`` assignment --
  every access to the attribute outside ``__init__`` must hold
  ``self._lock``;
* ``# repro-lint: holds[_lock]`` on a ``def`` line -- the method is an
  internal helper only ever called with ``self._lock`` held, so its body
  is analysed as if the lock were taken at entry.

It reports:

* an access to a declared attribute that does not hold its lock;
* a guarded object that *escapes* its critical section: returned bare
  (unless the method is a ``holds`` helper, i.e. the caller owns the
  lock), bound to a local inside the section and used after it (unless
  the section rebinds the attribute, moving the object out), yielded to
  a generator consumer while the lock is held, or captured by a closure
  handed to an executor / future callback;
* staleness both ways: a declaration whose attribute is never accessed
  outside ``__init__`` is dead (``declared-but-never-guarded``), and an
  undeclared attribute that is in fact consistently locked must be
  annotated (``guarded-but-never-declared``) so the contract stays
  written down;
* a race signal: an undeclared attribute accessed *sometimes* locked,
  sometimes not -- with at least one bare write -- exactly the single
  unguarded write the tier-1 suite cannot catch.

The analysis is deliberately **lexical**.  An access is "under" a lock
when a ``with self._lock:`` block encloses it in the source -- including
across nested ``def``/``lambda`` boundaries, because the dominant idiom
in this tree is a predicate closure evaluated *by* the lock's own
machinery (``Condition.wait_for(lambda: self._next_seq > cursor)`` runs
the lambda with the condition's lock held).  Closures that instead cross
a thread boundary (submitted to an executor, registered as a future
callback) are the capture escape above, not a weaker lexical model.

The check only engages classes that own a ``threading`` lock or carry a
contract marker; pure data classes and the simulator core never
construct one, so the service/obs scope is precise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.lint.determinism import dotted_name

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

#: ``{line: {verb: args}}``, the comment markers of one module.
Markers = Mapping[int, Mapping[str, tuple[str, ...]]]

_Func = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` read or write, with its lock context."""

    attr: str
    line: int
    write: bool
    held: frozenset[str]  #: canonical lock names held lexically
    in_init: bool


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


class ClassFacts:
    """One class: its locks and lock contract, every access its methods
    make to its other attributes, and its findings.

    The methods are walked only when the class owns a lock or carries a
    marker; the walk reports escapes itself, since it knows the
    contract before it starts.  :meth:`findings` adds the checks that
    need every access: unguarded access, staleness and race signals."""

    def __init__(self, node: ast.ClassDef, markers: Markers) -> None:
        self.name = node.name
        self.locks: set[str] = set()
        self.alias_of: dict[str, str] = {}
        self.declared: dict[str, tuple[str, int]] = {}
        self.holds: dict[str, frozenset[str]] = {}
        self.method_lines: dict[str, int] = {}
        self.accesses: list[AttrAccess] = []
        self._found: list[tuple[int, str]] = []
        methods = [
            item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for item in methods:
            self._collect_contract(item, markers)
        if self.engaged:
            for item in methods:
                _MethodWalker(self, item)

    def _collect_contract(self, func: _Func, markers: Markers) -> None:
        """Locks, ``Condition`` aliases, declarations and ``holds``."""
        self.method_lines[func.name] = func.lineno
        holds = markers.get(func.lineno, {}).get("holds")
        if holds is not None:
            self.holds[func.name] = frozenset(holds)
        for node in ast.walk(func):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            guards = markers.get(node.lineno, {}).get("guarded-by")
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                ctor = _lock_constructor(value)
                if ctor is not None:
                    self.locks.add(attr)
                    if ctor.args:
                        underlying = _self_attr(ctor.args[0])
                        if underlying is not None:
                            self.alias_of[attr] = underlying
                if guards:
                    self.declared[attr] = (guards[-1], node.lineno)

    @property
    def engaged(self) -> bool:
        """Whether the class has a lock or a contract to check."""
        return bool(self.locks or self.declared or self.holds)

    def canonical(self, lock: str) -> str:
        """Follow ``Condition(self._lock)`` aliases to the real lock."""
        seen: set[str] = set()
        while lock in self.alias_of and lock not in seen:
            seen.add(lock)
            lock = self.alias_of[lock]
        return lock

    def is_state(self, attr: str) -> bool:
        """Whether ``attr`` names a plain attribute: no lock, no method."""
        return attr not in self.locks and attr not in self.method_lines

    def holds_lock(self, method: str, lock: str) -> bool:
        """True when ``method`` is annotated as entered with ``lock``."""
        promised = self.holds.get(method, frozenset())
        return lock in {self.canonical(p) for p in promised}

    def report(self, line: int, message: str) -> None:
        self._found.append((line, f"{self.name}: {message}"))

    def findings(self) -> list[tuple[int, str]]:
        """The walk's escapes plus the checks over every access."""
        return self._found + [
            (line, f"{self.name}: {message}")
            for line, message in self._contract_findings()
        ]

    def _contract_findings(self) -> Iterator[tuple[int, str]]:
        """Unknown locks, unguarded access, staleness and race signals."""
        for attr, (lock, line) in sorted(self.declared.items()):
            if lock not in self.locks:
                yield (
                    line,
                    f"attribute {attr!r} is declared guarded-by[{lock}] "
                    f"but the class constructs no lock named {lock!r}",
                )
        for method, promised in sorted(self.holds.items()):
            for lock in sorted(promised):
                if lock not in self.locks:
                    yield (
                        self.method_lines[method],
                        f"method {method}() is declared holds[{lock}] "
                        f"but the class constructs no lock named "
                        f"{lock!r}",
                    )

        by_attr: dict[str, list[AttrAccess]] = {}
        reported: set[tuple[str, int]] = set()
        for access in self.accesses:
            if access.in_init:
                continue
            by_attr.setdefault(access.attr, []).append(access)
            decl = self.declared.get(access.attr)
            if decl is None:
                continue
            lock = self.canonical(decl[0])
            key = (access.attr, access.line)
            if lock in access.held or key in reported:
                continue
            reported.add(key)
            verb = "write to" if access.write else "read of"
            yield (
                access.line,
                f"unguarded {verb} {access.attr!r} (declared "
                f"guarded-by[{decl[0]}]); take `with self.{lock}:` or "
                f"annotate the method holds[{lock}]",
            )

        for attr, (lock, line) in sorted(self.declared.items()):
            if attr not in by_attr:
                yield (
                    line,
                    f"attribute {attr!r} is declared guarded-by[{lock}] "
                    f"but never accessed outside __init__; the "
                    f"declaration is stale -- delete it or the attribute",
                )

        for attr in sorted(set(by_attr) - set(self.declared)):
            outside = by_attr[attr]
            if all(not a.write for a in outside):
                # Read-only after __init__: immutable-after-publish, no
                # lock contract to declare.
                continue
            shared = outside[0].held.intersection(
                *(a.held for a in outside[1:]))
            if shared:
                common = sorted(shared)[0]
                yield (
                    min(a.line for a in outside),
                    f"attribute {attr!r} is accessed under "
                    f"self.{common} at every site but carries no "
                    f"declaration; annotate its __init__ assignment "
                    f"`# repro-lint: guarded-by[{common}]`",
                )
                continue
            bare_writes = [a for a in outside if a.write and not a.held]
            if bare_writes and any(a.held for a in outside):
                yield (
                    min(a.line for a in bare_writes),
                    f"race signal: {attr!r} is written here without a "
                    f"lock but accessed under one elsewhere in "
                    f"{self.name}; guard this site or split the "
                    f"attribute",
                )


class _MethodWalker:
    """Recursive walk of one method body, tracking held locks: records
    every access to a plain attribute and reports each escape of
    guarded state."""

    def __init__(self, cls: ClassFacts, func: _Func) -> None:
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

    def _captured(self, node: ast.AST) -> list[str]:
        """The guarded attributes read anywhere inside ``node``, sorted
        (method references excluded: calling a method that takes the
        lock itself is the *correct* cross-thread idiom)."""
        return sorted({
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
            and self.cls.is_state(n.attr)
            and n.attr in self.cls.declared
        })

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
            if attr is not None and self.cls.is_state(attr):
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
            attr = _self_attr(node.value)
            if attr is not None and self.cls.is_state(attr):
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
                attr = escaped[0]
                self.cls.report(
                    node.lineno,
                    f"{self.method}() uses guarded attribute {attr!r} "
                    f"through local {node.id!r} after the "
                    f"{self.cls.declared[attr][0]} critical section that "
                    f"bound it; copy it under the lock, or rebind the "
                    f"attribute there to move the object out",
                )
            return

        if isinstance(node, ast.Return) and node.value is not None:
            returned = _self_attr(node.value)
            if returned is None and isinstance(node.value, ast.Name):
                returned, _line = self._aliases.get(node.value.id, (None, 0))
                # The return escape below reports it, once.
                self._escaped.pop(node.value.id, None)
            decl = (
                self.cls.declared.get(returned)
                if returned is not None and self.cls.is_state(returned)
                else None
            )
            # A holds[] helper returning guarded state hands it to a
            # caller that still owns the lock; that is the contract.
            if decl is not None and not self.cls.holds_lock(
                self.method, self.cls.canonical(decl[0])
            ):
                self.cls.report(
                    node.lineno,
                    f"{self.method}() returns guarded attribute "
                    f"{returned!r} to a caller outside the {decl[0]} "
                    f"critical section; return a copy/snapshot instead",
                )
            self._visit(node.value, held)
            return

        if isinstance(node, (ast.Yield, ast.YieldFrom)) and held:
            self.cls.report(
                node.lineno,
                f"{self.method}() yields while holding "
                f"{', '.join(sorted(held))}: the consumer runs inside the "
                f"critical section for an unbounded time; snapshot under "
                f"the lock, yield outside",
            )
            # fall through: still record accesses in the yielded expr

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                receiver = _self_attr(node.func.value)
                if receiver is not None and self.cls.is_state(receiver):
                    self._record(receiver, node.lineno, write=True,
                                 held=held)
            if node.func.attr in DISPATCH_METHODS:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    target: Optional[ast.AST] = None
                    if isinstance(arg, ast.Lambda):
                        target = arg
                    elif isinstance(arg, ast.Name):
                        target = self._nested.get(arg.id)
                    leaked = [] if target is None else self._captured(target)
                    if leaked:
                        self.cls.report(
                            node.lineno,
                            f"closure passed to .{node.func.attr}() "
                            f"captures guarded attribute(s) "
                            f"{', '.join(repr(a) for a in leaked)}; it "
                            f"runs on another thread without the lock -- "
                            f"pass a snapshot or re-acquire inside",
                        )

        for child in ast.iter_child_nodes(node):
            self._visit(child, held)


def check_lock_discipline(
    tree: ast.Module, markers: Markers
) -> list[tuple[int, str]]:
    """``(line, message)`` for every lock-discipline finding of every
    class in ``tree``, nested classes included."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            cls = ClassFacts(node, markers)
            if cls.engaged:
                found += cls.findings()
    return found

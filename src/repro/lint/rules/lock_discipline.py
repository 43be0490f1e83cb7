"""Rule: shared state honours its declared lock, and the contract is live.

The service layer (:mod:`repro.service.jobs`) keeps every piece of
cross-thread state behind one lock; the correctness argument in
docs/ARCHITECTURE.md ("all three resolution paths run under one lock")
is only as good as every individual access site.  This rule turns that
argument into a checked contract:

* an attribute declared ``# repro-lint: guarded-by[_lock]`` must hold
  ``self._lock`` (or be inside a ``# repro-lint: holds[_lock]`` helper)
  at **every** access outside ``__init__``;
* a guarded object must not *escape* its critical section: returned
  bare (unless the method is a ``holds`` helper, i.e. the caller owns
  the lock), bound to a local inside the section and used after it
  (unless the section rebinds the attribute, moving the object out),
  yielded to a generator consumer while the lock is held, or captured
  by a closure handed to an executor / future callback;
* staleness both ways is a finding: a declaration whose attribute is
  never accessed outside ``__init__`` is dead
  (``declared-but-never-guarded``), and an undeclared attribute that is
  in fact consistently locked must be annotated
  (``guarded-but-never-declared``) so the contract stays written down;
* an undeclared attribute accessed *sometimes* locked, sometimes not --
  with at least one bare write -- is reported as a race signal: exactly
  the single unguarded write the tier-1 suite cannot catch.

The rule only engages classes that own a ``threading`` lock; pure data
classes and the simulator core never construct one, so the service/obs
scope is precise.  The "Concurrency contracts" tables in
docs/STATIC_ANALYSIS.md (rule list and marker vocabulary) are checked
against the registry and :data:`repro.lint.dataflow.CONTRACT_MARKERS`
by ``tests/test_docs.py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lint import dataflow
from repro.lint.model import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register
from repro.lint.rules.scope import CONCURRENCY_SCOPE


class _ClassChecker:
    """All lock-discipline findings for one lock-bearing class."""

    rule_id = "lock-discipline"

    def __init__(self, cls: dataflow.ClassState) -> None:
        self.cls = cls

    def _finding(self, line: int, message: str) -> Finding:
        return Finding(
            file=self.cls.source.rel,
            line=line,
            rule_id=self.rule_id,
            message=f"{self.cls.name}: {message}",
        )

    def _holds_lock(self, method: str, lock: str) -> bool:
        """True when ``method`` is annotated as entered with ``lock``."""
        promised = self.cls.holds.get(method)
        if promised is None:
            return False
        return lock in frozenset(self.cls.canonical(p) for p in promised)

    def run(self) -> Iterator[Finding]:
        cls = self.cls
        declared_attrs = set(cls.declared)

        # -- declarations name real locks ---------------------------------
        for attr, (lock, line) in sorted(cls.declared.items()):
            if lock not in cls.locks:
                yield self._finding(
                    line,
                    f"attribute {attr!r} is declared guarded-by[{lock}] "
                    f"but the class constructs no lock named {lock!r}",
                )
        for method, promised in sorted(cls.holds.items()):
            for lock in sorted(promised):
                if lock not in cls.locks:
                    yield self._finding(
                        cls.method_lines.get(method, cls.node.lineno),
                        f"method {method}() is declared holds[{lock}] "
                        f"but the class constructs no lock named "
                        f"{lock!r}",
                    )

        # -- every access to declared state is under its lock -------------
        reported: set[tuple[str, int]] = set()
        for access in cls.accesses:
            decl = cls.declared.get(access.attr)
            if decl is None or access.in_init:
                continue
            lock = cls.canonical(decl[0])
            if lock in access.held:
                continue
            key = (access.attr, access.line)
            if key in reported:
                continue
            reported.add(key)
            verb = "write to" if access.write else "read of"
            yield self._finding(
                access.line,
                f"unguarded {verb} {access.attr!r} (declared "
                f"guarded-by[{decl[0]}]); take `with self.{lock}:` or "
                f"annotate the method holds[{lock}]",
            )

        # -- escapes of guarded objects -----------------------------------
        for ret in cls.returns:
            decl = cls.declared.get(ret.attr)
            if decl is None:
                continue
            lock = cls.canonical(decl[0])
            if self._holds_lock(ret.method, lock):
                # A holds[] helper returning guarded state hands it to a
                # caller that still owns the lock; that is the contract.
                continue
            yield self._finding(
                ret.line,
                f"{ret.method}() returns guarded attribute {ret.attr!r} "
                f"to a caller outside the {decl[0]} critical section; "
                f"return a copy/snapshot instead",
            )
        for esc in cls.local_escapes:
            lock = cls.declared[esc.attr][0]
            yield self._finding(
                esc.line,
                f"{esc.method}() uses guarded attribute {esc.attr!r} "
                f"through local {esc.name!r} after the {lock} critical "
                f"section that bound it; copy it under the lock, or "
                f"rebind the attribute there to move the object out",
            )
        for y in cls.yields:
            locks = ", ".join(sorted(y.held))
            yield self._finding(
                y.line,
                f"{y.method}() yields while holding {locks}: the "
                f"consumer runs inside the critical section for an "
                f"unbounded time; snapshot under the lock, yield outside",
            )
        for cap in cls.captures:
            leaked = sorted(cap.attrs & declared_attrs)
            if not leaked:
                continue
            yield self._finding(
                cap.line,
                f"closure passed to .{cap.api}() captures guarded "
                f"attribute(s) {', '.join(repr(a) for a in leaked)}; it "
                f"runs on another thread without the lock -- pass a "
                f"snapshot or re-acquire inside",
            )

        # -- staleness both ways ------------------------------------------
        by_attr: dict[str, list[dataflow.AttrAccess]] = {}
        for access in cls.accesses:
            by_attr.setdefault(access.attr, []).append(access)

        for attr, (lock, line) in sorted(cls.declared.items()):
            outside = [a for a in by_attr.get(attr, []) if not a.in_init]
            if not outside:
                yield self._finding(
                    line,
                    f"attribute {attr!r} is declared guarded-by[{lock}] "
                    f"but never accessed outside __init__; the "
                    f"declaration is stale -- delete it or the attribute",
                )

        for attr in sorted(set(by_attr) - declared_attrs):
            outside = [a for a in by_attr[attr] if not a.in_init]
            if not outside or all(not a.write for a in outside):
                # Read-only after __init__: immutable-after-publish, no
                # lock contract to declare.
                continue
            common = dataflow.common_lock(outside)
            if common is not None:
                first = min(a.line for a in outside)
                yield self._finding(
                    first,
                    f"attribute {attr!r} is accessed under "
                    f"self.{common} at every site but carries no "
                    f"declaration; annotate its __init__ assignment "
                    f"`# repro-lint: guarded-by[{common}]`",
                )
                continue
            ever_locked = any(a.held for a in outside)
            bare_writes = [a for a in outside if a.write and not a.held]
            if ever_locked and bare_writes:
                worst = min(bare_writes, key=lambda a: a.line)
                yield self._finding(
                    worst.line,
                    f"race signal: {attr!r} is written here without a "
                    f"lock but accessed under one elsewhere in "
                    f"{cls.name}; guard this site or split the "
                    f"attribute",
                )


@register
class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    description = (
        "declared guarded-by state is locked at every access, never "
        "escapes its critical section, and the contract comments stay "
        "in sync with reality (staleness both ways is a finding)"
    )
    scope_dirs = CONCURRENCY_SCOPE

    def check(self, project: Project) -> Iterable[Finding]:
        for sf in self.files(project):
            assert isinstance(sf, SourceFile)
            for cls in dataflow.analyze_file(sf):
                if not cls.has_locks and not cls.declared and not cls.holds:
                    continue
                yield from _ClassChecker(cls).run()

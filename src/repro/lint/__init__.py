"""Repo-specific static analysis: machine-checked simulator invariants.

The persistent result cache of :mod:`repro.sim.parallel` rests on
bitwise-deterministic simulation, and the service's shared state must
honour its locks.  Neither fault reliably shows on the paths a test
runs, so this package checks each as an AST-level rule:

===================  ===================================================
rule id              invariant enforced
===================  ===================================================
``determinism``      no unseeded ``random``, wall-clock reads or
                     set-order iteration in simulator code
``lock-discipline``  ``guarded-by[lock]``-declared state holds its lock
                     at every access and never escapes
===================  ===================================================

Contracts that a runtime test checks more directly live in the test
suite instead: every ``SystemConfig`` leaf reaches the cache key
(``tests/test_config_io.py``), only the parent process appends to the
run ledger and stores results, one ``os.write`` per record
(``tests/test_obs.py``), and the event-kind, ledger-field and rule
tables in the docs match the code (``tests/test_docs.py``).  A
misspelt stats counter, an increment of a read-only aggregate and an
unguarded telemetry ``emit`` raise ``AttributeError`` on the first run
that reaches them, and the test suite runs every such site
(``tests/test_lint.py`` plants each fault on both engines).

This module is the front end; :mod:`repro.lint.determinism` and
:mod:`repro.lint.lock_discipline` are the two checks.  :data:`RULES`
maps each rule id to its description, the directories it scans and its
check, a function from a parsed module and the module's comment
markers to ``(line, message)`` pairs.  The front end finds the files,
parses each once, scans its ``# repro-lint:`` comments once, runs the
checks whose scope holds the file and drops the findings an ``ignore``
marker silences.  The comment verbs are:

* ``ignore[rule, ...]`` -- silence those rules' findings on this line
  (a bare ``ignore`` silences every rule);
* ``guarded-by[lock]`` and ``holds[lock]`` -- the lock contract
  ``lock-discipline`` checks.

Run it as ``python -m repro lint``; findings are plain
``file:line: [rule] message`` lines or JSON.  See
docs/STATIC_ANALYSIS.md for the rule catalog with the history behind
each rule.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.lint.determinism import check_determinism
from repro.lint.lock_discipline import Markers, check_lock_discipline

#: What a bare ``repro lint`` scans: the package itself.
DEFAULT_PATH = "src/repro"

#: The rule id of a file that does not parse.
PARSE_ERROR_RULE = "parse-error"

#: Directories whose code feeds cached simulation results.  Workloads,
#: security harnesses and experiment drivers intentionally sit outside:
#: they use seeded RNG by construction and never run inside the engine's
#: per-access loop.  Scope matching is by path component, so ``sim``
#: already covers ``sim/fast``; ``fast`` is listed so the array-state
#: engine stays covered even if it is ever promoted to a top-level
#: package.  The service and observability layers store and serve
#: cached results, so their wall-clock reads must carry a visible
#: rationale suppression too.
DETERMINISM_SCOPE = frozenset(
    ("cache", "core", "coherence", "hierarchy", "schemes", "sim", "fast",
     "service", "obs")
)

#: Directories holding threaded code: the HTTP job service, the
#: observability writers it shares with the CLI, and the parallel
#: runner.  ``lock-discipline`` only engages classes that construct a
#: ``threading`` lock, so including all of ``sim`` costs nothing.
CONCURRENCY_SCOPE = frozenset(("service", "obs", "sim"))

Check = Callable[[ast.Module, Markers], Iterable[tuple[int, str]]]

#: Rule id -> (one-line description, directories it scans, check).
RULES: dict[str, tuple[str, frozenset[str], Check]] = {
    "determinism": (
        "no unseeded random, wall-clock reads or set-order iteration in "
        "simulator, service or observability code (the content-hash "
        "result cache requires bitwise determinism; legitimate "
        "timestamps carry a rationale suppression)",
        DETERMINISM_SCOPE,
        check_determinism,
    ),
    "lock-discipline": (
        "declared guarded-by state is locked at every access, never "
        "escapes its critical section, and the contract comments stay "
        "in sync with reality (staleness both ways is a finding)",
        CONCURRENCY_SCOPE,
        check_lock_discipline,
    ),
}

#: The ``# repro-lint:`` comment verbs, in documentation order.
VERBS = ("ignore", "guarded-by", "holds")

_MARKER = re.compile(
    rf"#\s*repro-lint:\s*(?P<verb>{'|'.join(VERBS)})"
    r"(?:\[(?P<args>[^\]]*)\])?"
)


class LintError(RuntimeError):
    """Raised for unusable inputs (missing paths, unknown rule ids)."""


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line.

    ``file`` is the path as scanned (repo-relative when lint was
    given relative paths), ``line`` is 1-based.  Orderable so reports are
    stable regardless of rule execution order."""

    file: str
    line: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"


def scan_comments(source: str) -> dict[int, dict[str, tuple[str, ...]]]:
    """``{line: {verb: args}}`` for every ``# repro-lint:`` comment,
    the first of each verb on a line.  ``ignore`` may go bare (no args:
    every rule); ``guarded-by`` and ``holds`` count only with brackets."""
    out: dict[int, dict[str, tuple[str, ...]]] = {}
    if "repro-lint" not in source:  # fast path: most files have none
        return out
    for lineno, line in enumerate(source.splitlines(), 1):
        for m in _MARKER.finditer(line):
            verb, args = m.group("verb", "args")
            if args is None and verb != "ignore":
                continue
            out.setdefault(lineno, {}).setdefault(verb, tuple(
                tok.strip() for tok in (args or "").split(",") if tok.strip()
            ))
    return out


def _source_files(paths: list[str], root: Path) -> list[tuple[str, Path]]:
    """``(display path, path)`` of every Python file under ``paths``,
    each once, sorted by display path (relative to ``root`` when it
    lies below it)."""
    found: dict[Path, tuple[str, Path]] = {}
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise LintError(f"no such file or directory: {raw}")
        expanded = [p] if p.is_file() else [
            path for path in sorted(p.rglob("*.py"))
            if "__pycache__" not in path.parts
        ]
        for path in expanded:
            key = path.resolve()
            if key in found:
                continue
            try:
                rel = key.relative_to(root.resolve())
            except ValueError:
                rel = path
            found[key] = (rel.as_posix(), path)
    return sorted(found.values())


def lint_paths(
    paths: list[str],
    rule_ids: Optional[Iterable[str]] = None,
    root: Optional[str] = None,
) -> list[Finding]:
    """Lint files/directories; returns sorted, suppression-filtered
    findings.  ``root`` anchors the relative paths used in reports and
    scope matching (defaults to the current directory).  A file that
    does not parse yields a ``parse-error`` finding, so one broken file
    cannot hide findings in the others."""
    files = _source_files(paths, Path(root) if root is not None else Path.cwd())
    rules = sorted(RULES) if rule_ids is None else list(rule_ids)
    for rule_id in rules:
        if rule_id not in RULES:
            raise LintError(
                f"unknown rule id {rule_id!r}; known rules: "
                f"{', '.join(sorted(RULES))}"
            )
    kept: list[Finding] = []
    for rel, path in files:
        text = path.read_text()
        markers = scan_comments(text)
        found: set[tuple[int, str, str]] = set()
        try:
            tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            found.add((exc.lineno or 1, PARSE_ERROR_RULE,
                       f"syntax error: {exc.msg}"))
        else:
            dirs = set(Path(rel).parts[:-1])
            for rule_id in rules:
                _description, scope, check = RULES[rule_id]
                if dirs & scope:
                    found.update((line, rule_id, message)
                                 for line, message in check(tree, markers))
        for line, rule_id, message in found:
            ignored = markers.get(line, {}).get("ignore")
            if ignored is None or (ignored and rule_id not in ignored):
                kept.append(Finding(rel, line, rule_id, message))
    return sorted(kept)


def findings_to_json(findings: list[Finding]) -> str:
    """Serialise findings to a stable JSON document."""
    return json.dumps(
        {
            "count": len(findings),
            "findings": [dataclasses.asdict(f) for f in sorted(findings)],
        },
        indent=2,
        sort_keys=True,
    )


def format_findings(findings: list[Finding], fmt: str = "human") -> str:
    """Render findings as ``human`` report lines or a ``json`` document."""
    if fmt == "json":
        return findings_to_json(findings)
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    if not findings:
        return "repro lint: clean"
    lines = [f.format() for f in findings]
    lines.append(f"repro lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def run_lint(
    paths: Optional[list[str]] = None,
    fmt: str = "human",
    rules: Optional[str] = None,
    list_rules: bool = False,
) -> int:
    """The ``repro lint`` command: exit status 0 clean, 1 findings, 2
    usage error -- the same contract as the runtime auditor's CLI path,
    so CI treats any nonzero as a failure.  ``rules`` is the
    comma-separated ``--rules`` value."""
    if list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id][0]}")
        return 0
    rule_ids = (
        [tok.strip() for tok in rules.split(",") if tok.strip()]
        if rules
        else None
    )
    try:
        findings = lint_paths(paths or [DEFAULT_PATH], rule_ids=rule_ids)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(format_findings(findings, fmt))
    return 1 if findings else 0

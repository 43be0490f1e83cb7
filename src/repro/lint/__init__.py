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

``lock-discipline`` reads a per-class dataflow layer
(:mod:`repro.lint.dataflow`): which attributes of a lock-owning class
are locks, which lock each access holds, and the two contract markers
``# repro-lint: guarded-by[lock]`` and ``holds[lock]``.

Run it as ``python -m repro lint``; findings are plain
``file:line: [rule] message`` lines or JSON.  A finding is silenced for
one line with a trailing ``# repro-lint: ignore[rule]`` comment.  See
docs/STATIC_ANALYSIS.md for the rule catalog with the history behind
each rule.
"""

from repro.lint.model import (
    Finding,
    findings_from_json,
    findings_to_json,
)
from repro.lint.registry import Rule, all_rules, get_rule, register
from repro.lint.runner import format_findings, lint_paths

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "findings_from_json",
    "findings_to_json",
    "format_findings",
    "get_rule",
    "lint_paths",
    "register",
]

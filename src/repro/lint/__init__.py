"""Repo-specific static analysis: machine-checked simulator invariants.

The persistent result cache of :mod:`repro.sim.parallel` rests on
bitwise-deterministic simulation, a disabled telemetry path must cost
one predicate check, and the service's shared state must honour its
locks.  None of these can be checked by running one test path, so this
package checks each as an AST-level rule:

======================  ================================================
rule id                 invariant enforced
======================  ================================================
``determinism``         no unseeded ``random``, wall-clock reads or
                        set-order iteration in simulator code
``counter-discipline``  only declared ``SimStats``/``CoreStats``
                        fields are ever incremented
``telemetry-guard``     every event-emission call sits behind the
                        ``telemetry is not None`` predicate
``lock-discipline``     ``guarded-by[lock]``-declared state holds
                        its lock at every access and never escapes
``lock-order``          the acquires-while-holding graph is acyclic
``fork-safety``         pool-dispatched workers touch no locks,
                        files, or the run ledger
======================  ================================================

Contracts that a runtime test checks more directly live in the test
suite instead: every ``SystemConfig`` leaf reaches the cache key
(``tests/test_config_io.py``), and the event-kind, ledger-field and
rule tables in the docs match the code (``tests/test_docs.py``).

The concurrency rules ride a shared-state dataflow layer
(:mod:`repro.lint.dataflow`) that classifies each attribute of a
lock-owning class as thread-confined, lock-guarded, or
immutable-after-publish, with a three-marker contract vocabulary
(``# repro-lint: guarded-by[lock]`` / ``holds[lock]`` / ``fork-safe``).

Run it as ``python -m repro lint`` (or ``scripts/run_lint.py``); findings
are plain ``file:line: [rule] message`` lines or JSON.  A finding is
silenced for one line with a trailing ``# repro-lint: ignore[rule]``
comment; ``--write-baseline``/``--baseline`` record known findings and
fail only on new ones.  See docs/STATIC_ANALYSIS.md for the rule
catalog with the history behind each rule.
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

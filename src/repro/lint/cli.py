"""The ``repro lint`` command-line front end.

Exit status: 0 clean, 1 findings, 2 usage error -- the same contract as
the runtime auditor's CLI path, so CI treats any nonzero as a failure.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.project import LintError
from repro.lint.registry import all_rules
from repro.lint.runner import format_findings, lint_paths

#: What a bare ``repro lint`` scans: the package itself.
DEFAULT_PATH = "src/repro"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files/directories to lint (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--format",
        dest="format",
        default="human",
        choices=("human", "json"),
        help="report format (default: human)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="run only this comma-separated subset of rules",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    rule_ids = (
        [tok.strip() for tok in args.rules.split(",") if tok.strip()]
        if args.rules
        else None
    )
    try:
        findings = lint_paths(args.paths or [DEFAULT_PATH], rule_ids=rule_ids)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(format_findings(findings, args.format))
    return 1 if findings else 0

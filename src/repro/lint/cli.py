"""The ``repro lint`` command-line front end.

Exit status: 0 clean, 1 findings, 2 usage error -- the same contract as
the runtime auditor's CLI path, so CI treats any nonzero as a failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.lint.baseline import compare, load_baseline, write_baseline
from repro.lint.model import findings_to_json
from repro.lint.project import LintError
from repro.lint.registry import all_rules
from repro.lint.runner import format_findings, lint_paths

#: What a bare ``repro lint`` scans: the package itself.
DEFAULT_PATH = "src/repro"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach lint options (shared by ``repro lint`` and the script)."""
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
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "compare against a recorded baseline: matched findings are "
            "reported but only NEW findings fail the run (exit 1)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record the current findings as the baseline and exit 0",
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
        if args.baseline and args.write_baseline:
            raise LintError(
                "--baseline and --write-baseline are mutually exclusive"
            )
        paths = args.paths or [DEFAULT_PATH]
        findings = lint_paths(paths, rule_ids=rule_ids)
        if args.write_baseline:
            write_baseline(args.write_baseline, findings)
            print(
                f"repro lint: recorded {len(findings)} finding(s) to "
                f"{args.write_baseline}"
            )
            return 0
        if args.baseline:
            delta = compare(findings, load_baseline(args.baseline))
            if args.format == "json":
                print(findings_to_json(list(delta.new)))
            else:
                for finding in delta.new:
                    print(finding.format())
            print(delta.summary(args.baseline), file=sys.stderr)
            return 1 if delta.new else 0
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(format_findings(findings, args.format))
    return 1 if findings else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="static-analysis pass enforcing simulator invariants",
    )
    add_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

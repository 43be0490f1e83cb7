"""Docs-as-tests: every fenced ``python`` block in the user-facing
documentation must actually run, and the schema tables in the docs
must match the code they describe.

Each documented file's blocks execute *sequentially in one shared
namespace*, so a later block may use names a previous block defined --
exactly how a reader would paste them into one interpreter session.
Blocks whose first line is ``# docs-test: skip`` are exempt (use
sparingly: illustrative fragments that need unavailable context).

The docs are written to be smoke-fast; the session-wide
``REPRO_CACHE_DIR`` isolation from conftest applies here too, so doc
runs never touch (or get served from) the repo's real result cache.
"""

from __future__ import annotations

import dataclasses
import io
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = (
    "README.md",
    "docs/API.md",
    "docs/OBSERVABILITY.md",
    "docs/PERFORMANCE.md",
    "docs/SERVICE.md",
    "docs/STATIC_ANALYSIS.md",
    "docs/TRACES.md",
)

SKIP_MARKER = "# docs-test: skip"

_FENCE_OPEN = re.compile(r"^```python\s*$")
_FENCE_CLOSE = re.compile(r"^```\s*$")


def python_blocks(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(first_line_number, source)`` for every fenced python block."""
    blocks: list[tuple[int, str]] = []
    buf: list[str] = []
    start = 0
    in_block = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not in_block and _FENCE_OPEN.match(line):
            in_block, buf, start = True, [], lineno + 1
        elif in_block and _FENCE_CLOSE.match(line):
            in_block = False
            blocks.append((start, "\n".join(buf)))
        elif in_block:
            buf.append(line)
    assert not in_block, f"unterminated ```python fence in {path}"
    return blocks


def test_every_doc_file_exists_and_has_blocks():
    for rel in DOC_FILES:
        path = REPO_ROOT / rel
        assert path.is_file(), f"documented file missing: {rel}"
        assert python_blocks(path), f"no fenced python blocks in {rel}"


@pytest.mark.parametrize("rel", DOC_FILES)
def test_doc_python_blocks_execute(rel, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    path = REPO_ROOT / rel
    namespace: dict = {"__name__": f"docs_test[{rel}]"}
    ran = 0
    for lineno, source in python_blocks(path):
        if source.lstrip().startswith(SKIP_MARKER):
            continue
        code = compile(source, f"{rel}:{lineno}", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"{rel} block at line {lineno} raised "
                f"{type(exc).__name__}: {exc}\n--- block ---\n{source}"
            )
        ran += 1
    assert ran > 0, f"all python blocks in {rel} were skip-marked"


def test_skip_marker_is_honoured(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "text\n```python\n# docs-test: skip\nraise RuntimeError('boom')\n"
        "```\n```python\nx = 1\n```\n"
    )
    blocks = python_blocks(doc)
    assert len(blocks) == 2
    assert blocks[0][1].lstrip().startswith(SKIP_MARKER)
    assert blocks[1] == (7, "x = 1")


def test_extractor_line_numbers_point_at_block_bodies():
    buf = io.StringIO()
    path = REPO_ROOT / "README.md"
    text = path.read_text().splitlines()
    for lineno, source in python_blocks(path):
        first = source.splitlines()[0] if source else ""
        assert text[lineno - 1] == first, buf.getvalue()


# ---------------------------------------------------------------------------
# Schema tables match the code
# ---------------------------------------------------------------------------

_CELL_SPLIT = re.compile(r"(?<!\\)\|")


def markdown_table(text: str, *header: str) -> list[list[str]]:
    """Body rows of the first table in the markdown ``text`` whose header
    row begins with the cells ``header``; cells are stripped of
    whitespace and of enclosing backticks."""
    rows = None
    for line in text.splitlines():
        if not line.startswith("|"):
            if rows is not None:
                break
            continue
        cells = [c.strip().strip("`")
                 for c in _CELL_SPLIT.split(line.strip()[1:-1])]
        if rows is None:
            if tuple(cells[:len(header)]) == header:
                rows = []
        elif not set(cells[0]) <= set("-: "):
            rows.append(cells)
    assert rows is not None, f"no table headed {header}"
    return rows


def doc_text(rel: str) -> str:
    return (REPO_ROOT / rel).read_text()


def kind_table_drift(doc: str,
                     kinds: dict[str, tuple[str, str]]) -> list[str]:
    """Every way the Kind/Category/Severity table in ``doc`` differs
    from ``kinds`` (shaped like ``EVENT_KINDS``); empty when in step."""
    table = [tuple(row[:3]) for row in
             markdown_table(doc, "Kind", "Category", "Severity")]
    documented = {kind: (category, severity)
                  for kind, category, severity in table}
    drift = []
    for kind, declared in kinds.items():
        if kind not in documented:
            drift.append(f"{kind!r} is missing from the kind table")
        elif documented[kind] != declared:
            drift.append(f"row {kind!r} says ({', '.join(documented[kind])})"
                         f" but the code declares ({', '.join(declared)})")
    drift += [f"ghost row {kind!r}: no such kind"
              for kind in documented if kind not in kinds]
    if not drift and [row[0] for row in table] != list(kinds):
        drift.append("kind table rows are repeated or out of order")
    return drift


def test_event_kind_table_matches_event_kinds():
    from repro.params import TELEMETRY_CATEGORIES, TELEMETRY_SEVERITIES
    from repro.sim.telemetry import EVENT_KINDS

    assert kind_table_drift(doc_text("docs/OBSERVABILITY.md"),
                            EVENT_KINDS) == []
    for category, severity in EVENT_KINDS.values():
        assert category in TELEMETRY_CATEGORIES
        assert severity in TELEMETRY_SEVERITIES


def test_ledger_field_table_matches_ledger_record():
    from repro.obs.ledger import LedgerRecord

    rows = markdown_table(doc_text("docs/OBSERVABILITY.md"),
                          "Field", "Meaning")
    assert [row[0] for row in rows] == [
        f.name for f in dataclasses.fields(LedgerRecord)
    ]


def test_rule_table_matches_registry():
    from repro.lint import RULES

    rows = markdown_table(doc_text("docs/STATIC_ANALYSIS.md"),
                          "Rule id", "Scope")
    assert len(rows) == len(RULES)
    assert {row[0]: sorted(d.strip().strip("`") for d in row[1].split(","))
            for row in rows} == {
        rule_id: sorted(scope) for rule_id, (_d, scope, _c) in RULES.items()
    }


def test_concurrency_tables_match_the_analyzer():
    from repro.lint import RULES, VERBS

    rules = markdown_table(doc_text("docs/STATIC_ANALYSIS.md"),
                           "Rule", "Checks")
    assert [row[0] for row in rules] == [
        rule_id for rule_id, (_d, _s, check) in RULES.items()
        if check.__module__ == "repro.lint.lock_discipline"
    ]
    markers = markdown_table(doc_text("docs/STATIC_ANALYSIS.md"),
                             "Marker", "Placement")
    documented = [re.match(r"# repro-lint: ([\w-]+)", row[0])
                  for row in markers]
    assert [m.group(1) if m else None for m in documented] == list(VERBS)

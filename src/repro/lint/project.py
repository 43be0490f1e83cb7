"""The unit of analysis: a set of parsed Python source files.

Rules never touch the filesystem themselves; they receive a
:class:`Project`, which owns file discovery, lazy AST parsing and the
per-file suppression maps, so the same rule code runs unchanged on the
real tree and on the miniature fixture trees the self-tests build.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.lint.suppress import suppression_map


class LintError(RuntimeError):
    """Raised for unusable inputs (missing paths, unknown rule ids)."""


class SourceFile:
    """One Python source file: text, AST and suppression map, parsed once.

    ``rel`` is the display path (relative to the project root when
    possible) used in findings; ``scope_parts`` are its directory names
    relative to the root, which scoped rules match against (so
    ``src/repro/sim/engine.py`` is in the ``sim`` scope).
    """

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = path
        self.rel = rel.as_posix()
        self.scope_parts = frozenset(rel.parts[:-1])
        self.text = path.read_text()
        self._tree: Optional[ast.Module] = None
        self._suppressions: Optional[dict[int, frozenset[str]]] = None
        self.parse_error: Optional[SyntaxError] = None

    @property
    def tree(self) -> Optional[ast.Module]:
        """The parsed module, or None when the file has a syntax error
        (reported by the runner as a finding, not an exception)."""
        if self._tree is None and self.parse_error is None:
            try:
                self._tree = ast.parse(self.text, filename=self.rel)
            except SyntaxError as exc:
                self.parse_error = exc
        return self._tree

    @property
    def suppressions(self) -> dict[int, frozenset[str]]:
        if self._suppressions is None:
            self._suppressions = suppression_map(self.text)
        return self._suppressions


class Project:
    """Everything one lint run analyses."""

    def __init__(self, paths: list[str], root: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else Path.cwd()
        self.files: list[SourceFile] = []
        seen: set[Path] = set()
        for raw in paths:
            p = Path(raw)
            if not p.exists():
                raise LintError(f"no such file or directory: {raw}")
            for path in self._expand(p):
                key = path.resolve()
                if key in seen:
                    continue
                seen.add(key)
                self.files.append(SourceFile(path, self.root))
        self.files.sort(key=lambda f: f.rel)

    @staticmethod
    def _expand(p: Path) -> Iterator[Path]:
        if p.is_file():
            yield p
            return
        for path in sorted(p.rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path

    def scoped(self, dirs: frozenset[str]) -> Iterator[SourceFile]:
        """Source files whose directory path intersects ``dirs``."""
        for f in self.files:
            if f.scope_parts & dirs:
                yield f

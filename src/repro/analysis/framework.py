"""AST checker framework: findings, suppressions, file walking.

A checker is a small class with a ``name``, a one-line ``description``,
and a ``check(module)`` generator yielding :class:`Finding` objects.
The framework owns everything else: discovering files, parsing them
once into a :class:`SourceModule` (AST + parent links + suppression
table), filtering suppressed findings, and rendering results.

Suppression syntax — on the offending line::

    frame = heap.bufmgr.pin(page_id)  # repro: allow[pin-discipline]

``allow[a, b]`` waives several checkers at once; ``allow[*]`` waives
all of them.  Suppressions are deliberately line-scoped so a waiver
cannot silently cover new code added nearby.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol

__all__ = [
    "Finding",
    "SourceModule",
    "Checker",
    "all_checkers",
    "iter_python_files",
    "load_module",
    "run_checks",
]

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

# directory names never descended into
_SKIP_DIRS = {"__pycache__", "analysis_fixtures", ".git", ".venv", "build", "dist"}


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, addressable as ``path:line:col``."""

    path: str
    line: int
    col: int
    checker: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.checker}] {self.message}"


@dataclass
class SourceModule:
    """A parsed source file plus the per-line suppression table."""

    path: Path
    text: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    _parents: dict[int, ast.AST] = field(default_factory=dict, repr=False)

    @property
    def is_test(self) -> bool:
        """Test code is exempt from the style-level checkers."""
        name = self.path.name
        return (
            name.startswith("test_")
            or name == "conftest.py"
            or "tests" in self.path.parts
        )

    @property
    def is_core(self) -> bool:
        """Inside ``repro/core`` — the only home for raw code arithmetic."""
        parts = self.path.parts
        for i, part in enumerate(parts[:-1]):
            if part == "repro" and parts[i + 1] == "core":
                return True
        return False

    def suppressed(self, line: int, checker: str) -> bool:
        allowed = self.suppressions.get(line)
        if allowed is None:
            return False
        return "*" in allowed or checker in allowed

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk parent links from ``node`` (exclusive) up to the module."""
        current = self._parents.get(id(node))
        while current is not None:
            yield current
            current = self._parents.get(id(current))


class Checker(Protocol):
    """Minimal checker interface; implementations are stateless."""

    name: str
    description: str

    def check(self, module: SourceModule) -> Iterator[Finding]: ...


def _collect_suppressions(text: str) -> dict[int, frozenset[str]]:
    table: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            names = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            if names:
                table[token.start[0]] = names
    except tokenize.TokenError:
        pass  # syntax problems surface as parse errors instead
    return table


def load_module(path: Path) -> SourceModule:
    """Parse ``path`` into a checkable module (raises ``SyntaxError``)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    module = SourceModule(
        path=path,
        text=text,
        tree=tree,
        suppressions=_collect_suppressions(text),
    )
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            module._parents[id(child)] = parent
    return module


def iter_python_files(roots: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``roots`` in deterministic order."""
    seen: set[Path] = set()
    for root in roots:
        if root.is_file():
            if root.suffix == ".py" and root not in seen:
                seen.add(root)
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            parts = set(path.parts)
            if parts & _SKIP_DIRS:
                continue
            if any(part.startswith(".") for part in path.parts[1:]):
                continue
            if path not in seen:
                seen.add(path)
                yield path


def run_checks(
    roots: Iterable[Path],
    checkers: Iterable[Checker],
) -> tuple[list[Finding], list[str]]:
    """Run ``checkers`` over every file under ``roots``.

    Returns ``(findings, errors)`` where ``errors`` are files that
    failed to parse (reported rather than crashing the whole run).
    """
    checker_list = list(checkers)
    findings: list[Finding] = []
    errors: list[str] = []
    for path in iter_python_files(roots):
        try:
            module = load_module(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{path}: unparseable: {exc}")
            continue
        for checker in checker_list:
            for finding in checker.check(module):
                if not module.suppressed(finding.line, finding.checker):
                    findings.append(finding)
    findings.sort()
    return findings, errors


def all_checkers() -> list[Checker]:
    """The default checker suite, in documentation order."""
    from .annotations import AnnotationChecker
    from .code_domain import CodeDomainChecker
    from .exports import ExportChecker
    from .frame_escape import FrameEscapeChecker
    from .pin_discipline import PinDisciplineChecker
    from .span_discipline import SpanDisciplineChecker

    return [
        PinDisciplineChecker(),
        FrameEscapeChecker(),
        SpanDisciplineChecker(),
        CodeDomainChecker(),
        ExportChecker(),
        AnnotationChecker(),
    ]

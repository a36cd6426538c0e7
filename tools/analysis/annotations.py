"""Annotation-coverage checker: the public API must be fully typed.

The ``PBiCode`` / ``RegionCode`` / ``PrefixCode`` domain separation
(``core/pbitree.py``) only bites where signatures are annotated — an
untyped public function is a hole through which a region code can flow
into a slot expecting an in-order code without any tool noticing.
``mypy --strict`` enforces this in CI, but mypy is not guaranteed to be
installed in every dev environment; this checker is the dependency-free
subset that always runs with ``python -m tools.analysis``.

Rule: every *public* top-level function, and every public method
(including dunders) of a public class, must annotate all parameters
(``self`` / ``cls`` excepted) and the return type.  Names with a single
leading underscore are internal and exempt; nested functions are
exempt; test files are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import Finding, SourceModule

__all__ = ["AnnotationChecker"]

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_public(name: str) -> bool:
    if not name.startswith("_"):
        return True
    return name.startswith("__") and name.endswith("__")


def _missing_annotations(
    func: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> list[str]:
    missing: list[str] = []
    args = func.args
    positional = args.posonlyargs + args.args
    for index, arg in enumerate(positional):
        if is_method and index == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    if func.returns is None:
        missing.append("return")
    return missing


class AnnotationChecker:
    name = "annotations"
    description = "public functions and methods carry full type annotations"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.is_test:
            return
        for stmt in module.tree.body:
            if isinstance(stmt, _FuncDef) and _is_public(stmt.name):
                yield from self._check_func(module, stmt, is_method=False)
            elif isinstance(stmt, ast.ClassDef) and _is_public(stmt.name):
                for member in stmt.body:
                    if isinstance(member, _FuncDef) and _is_public(member.name):
                        is_static = any(
                            isinstance(dec, ast.Name) and dec.id == "staticmethod"
                            for dec in member.decorator_list
                        )
                        yield from self._check_func(
                            module,
                            member,
                            is_method=not is_static,
                            owner=stmt.name,
                        )

    def _check_func(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        is_method: bool,
        owner: str | None = None,
    ) -> Iterator[Finding]:
        missing = _missing_annotations(func, is_method)
        if not missing:
            return
        qualname = f"{owner}.{func.name}" if owner else func.name
        yield Finding(
            path=str(module.path),
            line=func.lineno,
            col=func.col_offset,
            checker=self.name,
            message=(
                f"public API {qualname!r} is missing annotations for: "
                + ", ".join(missing)
            ),
        )

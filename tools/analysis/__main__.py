"""CLI entry point: ``python -m tools.analysis [paths...]``.

Exit codes: 0 clean, 1 findings, 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .framework import Checker, all_checkers, run_checks

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Run the PBiTree invariant checkers over a source tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--checker",
        action="append",
        metavar="NAME",
        help="run only the named checker(s); repeatable",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_checkers",
        help="list available checkers and exit",
    )
    options = parser.parse_args(argv)

    checkers: list[Checker] = all_checkers()
    if options.list_checkers:
        for checker in checkers:
            print(f"{checker.name:16s} {checker.description}")
        return 0

    if options.checker:
        known = {checker.name: checker for checker in checkers}
        unknown = [name for name in options.checker if name not in known]
        if unknown:
            print(
                f"unknown checker(s): {', '.join(unknown)} "
                f"(have: {', '.join(known)})",
                file=sys.stderr,
            )
            return 2
        checkers = [known[name] for name in options.checker]

    roots = [Path(path) for path in options.paths]
    missing = [str(root) for root in roots if not root.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    findings, errors = run_checks(roots, checkers)
    for error in errors:
        print(error, file=sys.stderr)
    for finding in findings:
        print(finding.render())
    if findings:
        plural = "s" if len(findings) != 1 else ""
        print(f"\n{len(findings)} finding{plural}", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

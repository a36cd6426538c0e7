"""Developer tooling that is not part of the ``repro`` package.

:mod:`tools.analysis` holds the repo's AST invariant checkers; run them
from the repo root with ``PYTHONPATH=src python -m tools.analysis``.
"""

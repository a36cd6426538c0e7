"""Project-specific static analysis for the PBiTree reproduction.

The coding core juggles three interchangeable ``int`` representations —
in-order PBiTree codes, region codes (Lemma 3), and prefix codes
(Lemma 4) — and the storage layer runs on a pin/unpin buffer-pool
contract.  Both invariants were historically audited by hand; this
package turns them into machine checks that run locally
(``python -m tools.analysis src tests``) and in CI.

Checkers
--------
``pin-discipline``
    Every ``BufferManager.pin()`` / ``new_page()`` must release its
    frame on *all* paths: a ``with`` block, a ``try/finally`` with
    ``unpin``, or an ownership escape to an attribute whose holder
    releases it elsewhere.
``code-domain``
    Raw bit arithmetic (``<<``, ``>>``, ``&``) on code-valued operands
    is forbidden outside ``core/``; conversions must go through the
    Lemma 3/4 helpers in :mod:`repro.core.pbitree`.
``exports``
    ``__all__`` and the module's public definitions must agree.
``annotations``
    The public API must be fully annotated so the ``PBiCode`` /
    ``RegionCode`` / ``PrefixCode`` domain separation is enforceable.
``frame-escape``
    No view of a buffer frame leaves the decode helpers: ``memoryview``
    / ``.cast`` calls stay in an explicit module allowlist, and a
    frame's ``.data`` is never returned, yielded or stored.
``span-discipline``
    Tracer spans must be entered and closed on every path — the
    pin-discipline leak shape applied to the observability layer.

Findings can be locally waived with ``# repro: allow[checker-name]``
on the offending line; see ``docs/static-analysis.md``.
"""

from .framework import (
    Checker,
    Finding,
    SourceModule,
    all_checkers,
    iter_python_files,
    load_module,
    run_checks,
)

__all__ = [
    "Checker",
    "Finding",
    "SourceModule",
    "all_checkers",
    "iter_python_files",
    "load_module",
    "run_checks",
]

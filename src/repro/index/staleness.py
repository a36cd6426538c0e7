"""Staleness guard for retired indexes.

The storage-backed update pipeline (:mod:`repro.storage.docstore`)
maintains the B+-tree start index in place, except when tree growth
shifts every key (or a compaction rewrites the set): then it marks the
index stale instead of patching it, and the owner rebuilds on next
access.

The guard exists for everyone *else*: a caller holding a reference to
the pre-update index must get :class:`StaleIndexError` — loudly, on
the next probe — rather than silently wrong (pre-update) answers.

Retirement and probing are *atomic*: eager probe entry points wrap
their whole body in :meth:`StaleGuard.probe_guard`, and
:meth:`mark_stale` takes the same lock, so an index cannot be retired
between the freshness check and the probe work (the classic
check-then-act TOCTOU — a concurrent updater marking the index stale
mid-probe would otherwise let that probe return pre-update answers
without an error).  A retire issued while a probe holds the guard
blocks until it finishes; every probe started after
:meth:`mark_stale` returns raises.

Lazy scans (the ``range_scan`` generators) cannot hold the guard
across consumer pulls, so they hold it *page-at-a-time*: each leaf's
entries are collected under the guard, and the walk to the next leaf
re-checks freshness.  The guarantee there is page-granular — a retire
landing while the generator is suspended makes the very next leaf
access raise :class:`StaleIndexError`; entries already produced were
all read while the index was fresh (the scan behaves as if it had
reached its current page boundary before the retire), and a scan can
never silently run to completion across a retirement.

Session views (``session_view`` on the index classes) share their
base index's staleness state through ``_stale_source``: every guard
operation delegates to the *root* of the source chain, so views and
base take the same probe lock and a ``mark_stale`` on any of them
retires all of them atomically.  A view probing after its base was
retired raises exactly like the base would.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["StaleIndexError", "StaleGuard"]


class StaleIndexError(RuntimeError):
    """A retired index was probed after its element set changed."""


#: guards lazy creation of per-instance probe locks (the mixin has no
#: __init__ of its own, so the lock is installed on first use)
_guard_init_lock = threading.Lock()


class StaleGuard:
    """Mixin: ``mark_stale()`` once, every later probe raises.

    Kept as class-level attributes so fresh indexes pay nothing beyond
    one lock acquisition per probe; the probe entry points of the index
    classes wrap their bodies in :meth:`probe_guard`.
    """

    _stale_reason: Optional[str] = None
    _probe_lock: Optional[threading.RLock] = None
    #: set on session views — guard state delegates to the base index
    _stale_source: Optional["StaleGuard"] = None

    def _guard_root(self) -> "StaleGuard":
        """The index owning the guard state (self, or the view's base)."""
        root: StaleGuard = self
        while root._stale_source is not None:
            root = root._stale_source
        return root

    def _ensure_lock(self) -> threading.RLock:
        root = self._guard_root()
        lock = root._probe_lock
        if lock is None:
            with _guard_init_lock:
                lock = root._probe_lock
                if lock is None:
                    lock = threading.RLock()
                    root._probe_lock = lock
        return lock

    @property
    def is_stale(self) -> bool:
        return self._guard_root()._stale_reason is not None

    def mark_stale(self, reason: str) -> None:
        """Invalidate this index; it must be rebuilt, not probed.

        Blocks until any in-flight probe completes, so a probe either
        finishes against the still-fresh index or never starts.
        Retiring a session view retires its base (and all sibling
        views) too — they share one guard.
        """
        with self._ensure_lock():
            self._guard_root()._stale_reason = reason

    @contextmanager
    def probe_guard(self) -> Iterator[None]:
        """Atomic freshness-check-plus-probe window.

        Eager probe entry points wrap their whole body in this context
        manager: the staleness check and the probe happen under one
        lock, so :meth:`mark_stale` cannot slip in between them.  Lazy
        scan generators re-enter it for every leaf they touch, which
        re-runs the freshness check at each page boundary.  The lock
        is reentrant — probes that recurse into other guarded probes
        of the same index re-enter freely.
        """
        with self._ensure_lock():
            self._check_fresh()
            yield

    def _check_fresh(self) -> None:
        reason = self._guard_root()._stale_reason
        if reason is not None:
            raise StaleIndexError(
                f"{type(self).__name__} is stale ({reason}); "
                "retired indexes are invalidate-and-rebuild — fetch a fresh "
                "one from its owner instead of probing this reference"
            )

"""Staleness guard for retired indexes.

The storage-backed update pipeline (:mod:`repro.storage.docstore`)
maintains the B+-tree start index in place, except when tree growth
shifts every key (or a compaction rewrites the set): then it marks the
index stale instead of patching it, and the owner rebuilds on next
access.

The guard exists for everyone *else*: a caller holding a reference to
the pre-update index must get :class:`StaleIndexError` — loudly, on
the next probe — rather than silently wrong (pre-update) answers.
Every probe entry point calls :meth:`StaleGuard.check_fresh` first.

Lazy scans (the ``range_scan`` generators) check again before every
leaf they read: a retire landing while the generator is suspended
makes the very next leaf access raise.  Entries already produced were
all read while the index was fresh, and a scan can never silently run
to completion across a retirement.

Nothing here locks.  The engine runs one query at a time: the query
service holds its storage lock across a whole query and every update,
so a retire never lands inside a probe.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["StaleIndexError", "StaleGuard"]


class StaleIndexError(RuntimeError):
    """A retired index was probed after its element set changed."""


class StaleGuard:
    """Mixin: ``mark_stale()`` once, every later probe raises.

    A class-level attribute, so a fresh index pays one attribute read
    per probe.
    """

    _stale_reason: Optional[str] = None

    @property
    def is_stale(self) -> bool:
        return self._stale_reason is not None

    def mark_stale(self, reason: str) -> None:
        """Invalidate this index; it must be rebuilt, not probed."""
        self._stale_reason = reason

    def check_fresh(self) -> None:
        """Raise :class:`StaleIndexError` if this index was retired."""
        reason = self._stale_reason
        if reason is not None:
            raise StaleIndexError(
                f"{type(self).__name__} is stale ({reason}); "
                "retired indexes are invalidate-and-rebuild — fetch a fresh "
                "one from its owner instead of probing this reference"
            )

"""View-lifetime sanitizer for the zero-copy page-decode hot path.

The batched execution path hands out ``memoryview("Q")`` arrays that
alias pinned buffer frames, and the indexes' column caches decode
whole pages through the same views.  The borrow contract is one
sentence — *a page view is valid only while its frame stays pinned* —
but nothing enforced it: a view that leaks past its pin aliases a
recycled frame buffer and silently yields plausible-but-wrong codes.
This module is the ASan-style runtime side of that enforcement (the
static side is :mod:`repro.analysis.view_escape`):

* **Declared borrows.**  Every exporter of a page view registers the
  borrow in its pool's :class:`ViewRegistry` (a shadow table keyed by
  page id) for exactly the window the view is legal, via
  :func:`borrowed`.  Unpinning a frame to pin count zero while a
  declared borrow is live raises :class:`UseAfterUnpinError`.
* **Export revocation.**  On leaving the borrow window the exporter
  ``release()``-s the view it handed out, so a consumer that kept a
  reference gets an immediate ``ValueError`` on any later element
  access instead of stale bytes.  Derived views (slices, casts,
  ``memoryview(view)`` re-exports) own their *own* export of the
  underlying frame buffer — they neither block the release nor die
  with it, and are caught by the evict-time probe below instead.
* **Evict-time export probe.**  Before a frame buffer is recycled or
  dropped, the pool probes the ``bytearray`` for surviving buffer
  exports (a zero-length append is refused with ``BufferError`` iff an
  export is live) and raises :class:`LiveViewAtEvictError` naming the
  page.  Pinned frames are never victims, so any export found here is
  a leaked view by definition.
* **Poisoning.**  Sanitized pools never recycle victim buffers into
  new frames; the victim's bytes are filled with :data:`POISON_BYTE`
  (``0xDB``) so a stale alias that escapes every check above — e.g. a
  retained plain ``frame.data`` reference, which never exports — reads
  loud garbage instead of codes that happen to join.

The mode is off by default and adds one predicate call per unpin when
off.  It is one ``ContextVar[bool]``: its default is parsed once from
``REPRO_SANITIZE`` (a typo is a :class:`ValueError`, never a silent
fallback), and :func:`sanitized` pins it for the calling *context*
only, so one thread's or tenant's scope cannot flip another's.  Worker
processes do not share the parent's context: a pooled task carries the
bool (``SlotJoinTask.sanitize``) and the worker runs under it.
Sanitized runs do no extra disk I/O, so ``JoinReport`` accounting stays
field-for-field identical to unsanitized runs (the execution matrix
holds them equal).

The errors are deliberately *not* :class:`~repro.storage.faults.
StorageFault` subclasses: they diagnose programming errors, not
environmental ones, and must never be retried or absorbed by the
fault-tolerance layer.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Sequence

__all__ = [
    "POISON_BYTE",
    "ViewSanitizerError",
    "UseAfterUnpinError",
    "LiveViewAtEvictError",
    "ViewRegistry",
    "sanitize_enabled",
    "sanitized",
    "borrowed",
    "check_unpin_to_zero",
    "check_evict",
    "poison",
]

#: fill byte for retired frame buffers (0xDB = "dead buffer"; reads as
#: the implausible code 0xDBDB... rather than zeros, which are legal)
POISON_BYTE = 0xDB


class ViewSanitizerError(RuntimeError):
    """A zero-copy page view outlived the pin that made it valid."""


class UseAfterUnpinError(ViewSanitizerError):
    """A declared borrow was still live when its frame lost its last pin.

    Raised either by :func:`check_unpin_to_zero` (the borrower never
    released) or by :func:`borrowed` on exit in the defensive case
    that something blocks revoking the handed-out view.
    """

    def __init__(self, page_id: int, labels: Sequence[str]) -> None:
        joined = ", ".join(labels) or "<unlabelled>"
        super().__init__(
            f"page {page_id} unpinned to zero with live borrowed "
            f"view(s): {joined}"
        )
        self.page_id = page_id
        self.labels = tuple(labels)


class LiveViewAtEvictError(ViewSanitizerError):
    """A frame buffer still had a live view when it was retired.

    ``reason`` names the retirement path (``"recycle"``, ``"evict"`` or
    ``"discard"``); ``labels`` carries any declared borrows, and is
    empty when the leak is an undeclared export caught by the buffer
    probe alone.
    """

    def __init__(
        self, page_id: int, reason: str, labels: Sequence[str] = ()
    ) -> None:
        detail = f" (declared: {', '.join(labels)})" if labels else ""
        super().__init__(
            f"page {page_id} retired ({reason}) with a live exported "
            f"page view{detail}: a borrow outlived its pin"
        )
        self.page_id = page_id
        self.reason = reason
        self.labels = tuple(labels)


_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def _parse_switch(raw: str) -> bool:
    """A ``REPRO_SANITIZE`` value: blank is off, a typo is an error (a
    ``REPRO_SANITIZE=ture`` must fail the run, not leave it unsanitized)."""
    raw = raw.strip()
    if raw.lower() in _TRUE:
        return True
    if raw.lower() in _FALSE + ("",):
        return False
    raise ValueError(
        f"REPRO_SANITIZE={raw!r}: expected one of {'/'.join(_TRUE)} "
        f"or {'/'.join(_FALSE)}"
    )


#: the process default is the variable's default, so a context with no
#: scope active (a fresh thread, a worker process) sees it
_enabled: ContextVar[bool] = ContextVar(
    "repro_sanitize", default=_parse_switch(os.environ.get("REPRO_SANITIZE", ""))
)

#: whether the sanitizer is active in the calling context (bound
#: directly to the variable's ``get``: readers sit on hot paths)
sanitize_enabled = _enabled.get


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Pin the sanitizer on (or off) for the calling context only."""
    token = _enabled.set(on)
    try:
        yield
    finally:
        _enabled.reset(token)


# ---------------------------------------------------------------------------
# the shadow borrow registry (one per BufferManager)
# ---------------------------------------------------------------------------
class ViewRegistry:
    """Shadow table of live page-view borrows, keyed by page id.

    Purely diagnostic state: registering and releasing borrows never
    touches the pool, the disk or the I/O counters, so the registry is
    invisible to accounting.  Tickets are monotonically increasing ints
    so the same page can carry several concurrent labelled borrows.
    """

    __slots__ = ("_live", "_next_ticket")

    def __init__(self) -> None:
        #: page id -> {ticket: label}
        self._live: dict[int, dict[int, str]] = {}
        self._next_ticket = 0

    def register(self, page_id: int, label: str) -> int:
        """Declare a borrow of ``page_id``; returns its release ticket."""
        ticket = self._next_ticket
        self._next_ticket += 1
        self._live.setdefault(page_id, {})[ticket] = label
        return ticket

    def release(self, page_id: int, ticket: int) -> None:
        """Retire a declared borrow (idempotent for unknown tickets)."""
        borrows = self._live.get(page_id)
        if borrows is not None:
            borrows.pop(ticket, None)
            if not borrows:
                del self._live[page_id]

    def live_labels(self, page_id: int) -> list[str]:
        """Labels of every live borrow of ``page_id`` (empty when clean)."""
        return list(self._live.get(page_id, {}).values())

    @property
    def num_live(self) -> int:
        return sum(len(borrows) for borrows in self._live.values())

    def clear(self) -> None:
        self._live.clear()


# ---------------------------------------------------------------------------
# exporter-side borrow window
# ---------------------------------------------------------------------------
@contextmanager
def borrowed(
    registry: ViewRegistry,
    page_id: int,
    label: str,
    view: object = None,
) -> Iterator[None]:
    """Declare a borrow for the duration of the ``with`` body.

    Exporters of zero-copy page views wrap the window in which the view
    is legally alive (always inside the pin scope).  On exit the borrow
    is retired and, when ``view`` is the handed-out ``memoryview``, the
    export is revoked with ``view.release()`` — any consumer access
    after that raises ``ValueError`` immediately.  A derived view
    (slice, cast or re-export) owns a separate export of the frame
    buffer, so it survives the release and is caught by the evict-time
    probe instead; should anything ever block the release itself, the
    ``BufferError`` is re-raised as :class:`UseAfterUnpinError` naming
    this borrow.  No-op when the sanitizer is off.
    """
    if not sanitize_enabled():
        yield
        return
    ticket = registry.register(page_id, label)
    try:
        yield
    finally:
        registry.release(page_id, ticket)
        if isinstance(view, memoryview):
            try:
                view.release()
            except BufferError as exc:
                raise UseAfterUnpinError(page_id, [label]) from exc


# ---------------------------------------------------------------------------
# buffer-pool hooks
# ---------------------------------------------------------------------------
def check_unpin_to_zero(registry: ViewRegistry, page_id: int) -> None:
    """Reject dropping the last pin of a page with live declared borrows.

    Hot path (every ``unpin`` and ``touch`` to zero): the registry is
    almost always empty, so its emptiness is tested before the
    context-variable read of :func:`sanitize_enabled`.
    """
    if registry._live and sanitize_enabled():
        labels = registry.live_labels(page_id)
        if labels:
            raise UseAfterUnpinError(page_id, labels)


def check_evict(
    registry: ViewRegistry, page_id: int, data: bytearray, reason: str
) -> None:
    """Reject retiring a frame buffer that still has a live view.

    Two layers: declared borrows in the registry, then a direct probe
    of the ``bytearray`` for surviving buffer exports — appending to an
    exported bytearray raises ``BufferError`` without mutating it, so
    the probe is side-effect free (the appended byte is removed again
    when no export exists).  Exporters revoke their views when the
    borrow window closes, and transient views die inside their pin
    scope, so any export that reaches this probe is a leaked view.
    """
    if not sanitize_enabled():
        return
    labels = registry.live_labels(page_id)
    if labels:
        raise LiveViewAtEvictError(page_id, reason, labels)
    try:
        data.append(0)
    except BufferError:
        raise LiveViewAtEvictError(page_id, reason) from None
    del data[-1:]


def poison(data: bytearray) -> None:
    """Fill a retired frame buffer with :data:`POISON_BYTE`.

    Stale aliases that never export (plain ``bytearray`` references)
    escape both checks above; after poisoning they read ``0xDB...``
    garbage — outside every legal code domain — instead of whatever
    page was loaded into the recycled buffer next.
    """
    if not sanitize_enabled():
        return
    data[:] = bytes([POISON_BYTE]) * len(data)
